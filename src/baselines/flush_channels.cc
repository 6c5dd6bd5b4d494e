#include "baselines/flush_channels.hh"

#include "common/log.hh"
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
flushChannelAvailable(const BaselineConfig &cfg)
{
    return cfg.noise.observer.hasFlush;
}

BaselineResult
runFlushChannel(const BaselineConfig &cfg, FlushKind kind)
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
    auto factory = [kind](const BaselineConfig &c,
                          const std::vector<bool> &frameBits,
                          sim::Hierarchy &,
                          Rng &) -> BaselineParts {
        const std::size_t sampleCount =
            frameBits.size() + c.senderStartSlots + c.sampleMargin;

        BaselineParts parts;
        // Both processes map the same physical page.
        parts.senderSpace.mapShared(sharedVa, 4096, /*physBase=*/0x1000);
        parts.receiverSpace.mapShared(sharedVa, 4096, /*physBase=*/0x1000);

        parts.receiver = std::make_unique<FlushReceiver>(
            sharedVa, kind, c.tr, sampleCount);
        parts.sender = std::make_unique<FlushSender>(
            sharedVa, kind, frameBits, c.ts);

        const auto &lat = c.platform.lat;
        const double tsc = static_cast<double>(c.noise.tscReadCost);
        const double ov = static_cast<double>(c.noise.opOverhead);
        switch (kind) {
          case FlushKind::FlushReload:
            // Present (sender touched: bit 1) = fast L1/L2 hit;
            // absent (bit 0) = DRAM. Inverted mapping.
            parts.centroidLow = tsc + ov + double(lat.l1Hit);
            parts.centroidHigh = tsc + ov + double(lat.mem);
            parts.invert = true;
            break;
          case FlushKind::FlushFlush:
            // Absent (0) = base flush; present clean (1) = +extra.
            parts.centroidLow = tsc + ov + double(lat.flushBase);
            parts.centroidHigh =
                tsc + ov + double(lat.flushBase + lat.flushPresentExtra);
            break;
          case FlushKind::CoherenceState:
            // Present clean / S (0) vs present dirty / M (1).
            parts.centroidLow =
                tsc + ov + double(lat.flushBase + lat.flushPresentExtra);
            parts.centroidHigh =
                tsc + ov + double(lat.flushBase + lat.flushPresentExtra +
                                  lat.flushDirtyExtra);
            break;
        }
        return parts;
    };
    return runBaseline(cfg, factory);
}

} // namespace wb::baselines
