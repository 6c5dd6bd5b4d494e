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

const sim::Trace *
PacedProgram::nextTrace(sim::ProcView &)
{
    // The whole body as one trace; its last op's hook builds the next.
    trace_ = {ops_.data(), ops_.size(), points_.data(), points_.size()};
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
        buildSlot(slot_, res, view);
        if (ops_.empty() || ops_.back().kind != sim::MemOp::Kind::Halt)
            push(sim::MemOp::spinUntil(tlast_ + period_), Hook::Spin);
        return;
    }
}

} // namespace wb::chan
