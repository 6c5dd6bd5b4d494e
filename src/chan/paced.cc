#include "chan/paced.hh"

namespace wb::chan
{

PacedProgram::PacedProgram(Cycles period, bool measNoise)
    : period_(period), measNoise_(measNoise)
{
    push(sim::MemOp::tscRead(), Hook::Start);
}

void
PacedProgram::startupOp(const sim::MemOp &op)
{
    // Insert ahead of the initial TSC read, which stays last.
    ops_.insert(ops_.end() - 1, op);
    hooks_.insert(hooks_.end() - 1, Hook::None);
    ++points_.back();
}

std::optional<sim::MemOp>
PacedProgram::next(sim::ProcView &view)
{
    if (hooks_[pos_] == Hook::Hammer) {
        if (view.now() < hammerUntil_)
            return ops_[pos_];
        ++pos_; // deadline reached: on to the rest of the body
    }
    return ops_[pos_];
}

void
PacedProgram::onResult(const sim::MemOp &, const sim::OpResult &res,
                       sim::ProcView &view)
{
    const std::size_t at = pos_;
    if (hooks_[at] != Hook::Hammer)
        ++pos_;
    dispatch(at, res, view);
}

const sim::Trace *
PacedProgram::nextTrace(sim::ProcView &)
{
    // The whole body as one trace, unless per-op is already walking
    // it or a hammer makes its length depend on the clock.
    if (pos_ != 0 || hammered_)
        return nullptr;
    trace_ = {ops_.data(), ops_.size(), points_.data(), points_.size()};
    pos_ = ops_.size();
    return &trace_;
}

void
PacedProgram::onTraceResult(std::uint32_t opIdx, const sim::MemOp &,
                            const sim::OpResult &res, sim::ProcView &view)
{
    dispatch(opIdx, res, view);
}

void
PacedProgram::dispatch(std::size_t at, const sim::OpResult &res,
                       sim::ProcView &view)
{
    switch (hooks_[at]) {
      case Hook::None:
      case Hook::Hammer:
        return;
      case Hook::Op:
        onOpResult(res, view);
        return;
      case Hook::WindowOpen:
        windowStart_ = res.tsc;
        return;
      case Hook::WindowClose: {
        // Signed: a jittered timer can read end < start.
        double latency = static_cast<double>(res.tsc) -
                         static_cast<double>(windowStart_);
        if (measNoise_) {
            const double sigma = view.noise().measSigma(period_);
            if (sigma > 0.0)
                latency += view.rng().gaussian(0.0, sigma);
        }
        latencies_.push_back(latency);
        sampleTimes_.push_back(view.now());
        onSample(view);
        return;
      }
      case Hook::Spin:
        ++slot_;
        [[fallthrough]];
      case Hook::Start:
        // Algorithm 3: Tlast = TSC. This op is the last of its body
        // (and of any trace holding it), so the body can be rebuilt:
        // the core reads nothing more of the old one.
        tlast_ = res.tsc;
        ops_.clear();
        hooks_.clear();
        points_.clear();
        pos_ = 0;
        hammered_ = false;
        buildSlot(slot_, res, view);
        if (ops_.empty() || ops_.back().kind != sim::MemOp::Kind::Halt)
            push(sim::MemOp::spinUntil(tlast_ + period_), Hook::Spin);
        return;
    }
}

} // namespace wb::chan
