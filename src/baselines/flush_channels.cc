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
    : line_(sharedLine), kind_(kind), tr_(tr), sampleCount_(sampleCount)
{
}

std::optional<sim::MemOp>
FlushReceiver::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::InitTsc:
        return sim::MemOp::tscRead();
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + tr_);
      case Phase::MeasStart:
        return sim::MemOp::tscRead();
      case Phase::MeasOp:
        return kind_ == FlushKind::FlushReload ? sim::MemOp::load(line_)
                                               : sim::MemOp::flush(line_);
      case Phase::MeasEnd:
        return sim::MemOp::tscRead();
      case Phase::CleanFlush:
        return sim::MemOp::flush(line_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
FlushReceiver::onResult(const sim::MemOp &, const sim::OpResult &res,
                        sim::ProcView &)
{
    switch (phase_) {
      case Phase::InitTsc:
        tlast_ = res.tsc;
        phase_ = Phase::Wait;
        break;
      case Phase::Wait:
        tlast_ = res.tsc;
        phase_ = Phase::MeasStart;
        break;
      case Phase::MeasStart:
        tscStart_ = res.tsc;
        phase_ = Phase::MeasOp;
        break;
      case Phase::MeasOp:
        phase_ = Phase::MeasEnd;
        break;
      case Phase::MeasEnd:
        // Signed: a jittered timer can read end < start.
        samples_.push_back(double(res.tsc) - double(tscStart_));
        if (samples_.size() >= sampleCount_)
            phase_ = Phase::Done;
        else if (kind_ == FlushKind::FlushReload)
            phase_ = Phase::CleanFlush;
        else
            phase_ = Phase::Wait;
        break;
      case Phase::CleanFlush:
        phase_ = Phase::Wait;
        break;
      case Phase::Done:
        break;
    }
}

FlushSender::FlushSender(Addr sharedLine, FlushKind kind,
                         std::vector<bool> bits, Cycles ts)
    : line_(sharedLine), kind_(kind), bits_(std::move(bits)), ts_(ts)
{
}

std::optional<sim::MemOp>
FlushSender::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Touch: {
        const bool one = bits_[bitIdx_];
        if (kind_ == FlushKind::CoherenceState) {
            // M (dirty) for 1, shared/clean for 0.
            return one ? sim::MemOp::store(line_) : sim::MemOp::load(line_);
        }
        // FlushReload / FlushFlush: touch for 1 (never reached for 0;
        // beginSlot routes 0-bits straight to Wait).
        return sim::MemOp::load(line_);
      }
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
FlushSender::onResult(const sim::MemOp &op, const sim::OpResult &res,
                      sim::ProcView &)
{
    auto beginSlot = [this]() {
        if (bitIdx_ >= bits_.size()) {
            phase_ = Phase::Done;
        } else if (kind_ == FlushKind::CoherenceState || bits_[bitIdx_]) {
            // The coherence channel touches on every bit (load vs
            // store); the others only on 1-bits.
            phase_ = Phase::Touch;
        } else {
            phase_ = Phase::Wait;
        }
    };

    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        beginSlot();
        break;
      case sim::MemOp::Kind::Load:
      case sim::MemOp::Kind::Store:
        phase_ = Phase::Wait;
        break;
      case sim::MemOp::Kind::SpinUntil:
        tlast_ = res.tsc;
        ++bitIdx_;
        beginSlot();
        break;
      default:
        break;
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

        auto receiver = std::make_unique<FlushReceiver>(
            sharedVa, kind, c.tr, sampleCount);
        parts.latencySource = receiver.get();
        parts.receiver = std::move(receiver);
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
