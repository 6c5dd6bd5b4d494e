#include "baselines/flush_channels.hh"

#include "common/log.hh"
#include "chan/pipeline.hh"
#include "sim/observer.hh"

namespace wb::baselines
{

namespace
{

/** Virtual address both parties map the shared line at. */
constexpr Addr sharedVa = 0x7f000000;

} // namespace

std::string
flushKindName(FlushKind kind)
{
    switch (kind) {
      case FlushKind::FlushReload:
        return "Flush+Reload";
      case FlushKind::FlushFlush:
        return "Flush+Flush";
      case FlushKind::CoherenceState:
        return "CoherenceState";
    }
    return "?";
}

FlushReceiver::FlushReceiver(Addr sharedLine, FlushKind kind, Cycles tr,
                             std::size_t sampleCount)
    : PacedProgram(tr), line_(sharedLine), kind_(kind),
      sampleCount_(sampleCount)
{
}

void
FlushReceiver::buildSlot(std::size_t index, const sim::OpResult &,
                         sim::ProcView &)
{
    if (index == 0)
        return;
    openWindow();
    op(kind_ == FlushKind::FlushReload ? sim::MemOp::load(line_)
                                       : sim::MemOp::flush(line_));
    closeWindow();
    if (index >= sampleCount_)
        halt();
    else if (kind_ == FlushKind::FlushReload)
        op(sim::MemOp::flush(line_)); // untimed: reset for next slot
}

FlushSender::FlushSender(Addr sharedLine, FlushKind kind,
                         std::vector<bool> bits, Cycles ts)
    : PacedProgram(ts), line_(sharedLine), kind_(kind),
      bits_(std::move(bits))
{
}

void
FlushSender::buildSlot(std::size_t index, const sim::OpResult &,
                       sim::ProcView &)
{
    if (index >= bits_.size()) {
        halt();
        return;
    }
    const bool one = bits_[index];
    if (kind_ == FlushKind::CoherenceState) {
        // Touch on every bit: M (dirty) for 1, shared/clean for 0.
        op(one ? sim::MemOp::store(line_) : sim::MemOp::load(line_));
    } else if (one) {
        op(sim::MemOp::load(line_));
    }
}

bool
flushChannelAvailable(const chan::ChannelConfig &cfg)
{
    return cfg.noise.observer.hasFlush;
}

chan::ChannelResult
runFlushChannel(const chan::ChannelConfig &cfg, FlushKind kind)
{
    if (!flushChannelAvailable(cfg)) {
        // Fail loudly before the platform is even built: the receiver
        // would otherwise issue its first clflush straight into the
        // SmtCore observer guard mid-run.
        fatalf("runFlushChannel: ", flushKindName(kind),
               " requires clflush, but the ",
               sim::observerClassName(cfg.noise.observer.cls),
               " observer has hasFlush=false — channel denied");
    }
    const chan::ProtocolConfig &proto = cfg.protocol;
    requireBaselineProtocol(proto, cfg.platform.l1.numSets());

    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    // Both processes map the same physical page.
    sim::AddressSpace senderSpace(1), receiverSpace(2);
    senderSpace.mapShared(sharedVa, 4096, /*physBase=*/0x1000);
    receiverSpace.mapShared(sharedVa, 4096, /*physBase=*/0x1000);

    const auto &lat = cfg.platform.lat;
    const double timing = static_cast<double>(cfg.noise.tscReadCost) +
        static_cast<double>(cfg.noise.opOverhead);
    const double present = double(lat.flushBase + lat.flushPresentExtra);
    chan::Calibration calibration;
    switch (kind) {
      case FlushKind::FlushReload:
        // Present (sender touched: bit 1) = fast L1/L2 hit; absent
        // (bit 0) = DRAM. The fast symbol is bit 1: the pass inverts.
        calibration = closedFormCalibration(timing + double(lat.l1Hit),
                                            timing + double(lat.mem));
        break;
      case FlushKind::FlushFlush:
        // Absent (0) = base flush; present clean (1) = +extra.
        calibration = closedFormCalibration(
            timing + double(lat.flushBase), timing + present);
        break;
      case FlushKind::CoherenceState:
        // Present clean / S (0) vs present dirty / M (1).
        calibration = closedFormCalibration(
            timing + present,
            timing + double(lat.flushBase + lat.flushPresentExtra +
                            lat.flushDirtyExtra));
        break;
    }

    const chan::pipeline::Pass pass{
        .encoding = proto.encoding,
        .rateKbps = proto.rateKbps(),
        .frame = chan::pipeline::shotFrame(proto, frameRng),
        .calibration = std::move(calibration),
        .run = [cfg, proto, kind, senderSpace, receiverSpace,
                runRng](const std::vector<unsigned> &levels) {
            const std::vector<bool> bits(levels.begin(), levels.end());
            chan::pipeline::SameCoreWiring wiring(cfg, bits.size(), runRng);
            FlushReceiver receiver(sharedVa, kind, proto.tr,
                                   wiring.schedule().sampleCount);
            FlushSender sender(sharedVa, kind, bits, proto.ts);
            return wiring.run(sender, receiver, senderSpace, receiverSpace);
        },
        .invert = kind == FlushKind::FlushReload};
    return chan::pipeline::runShot(pass, proto.frames);
}

} // namespace wb::baselines
