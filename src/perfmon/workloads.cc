#include "perfmon/workloads.hh"

#include <algorithm>

namespace wb::perfmon
{

namespace
{

/** Cheap deterministic per-program PRNG step (xorshift64). */
std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

CompilerWorkload::CompilerWorkload() : CompilerWorkload(Params{})
{
}

CompilerWorkload::CompilerWorkload(const Params &params) : params_(params)
{
}

const sim::Trace *
CompilerWorkload::nextTrace(sim::ProcView &)
{
    // The walk and stream draws come from the private xorshift and the
    // stream cursor, never the run RNG, so compiling a whole phase
    // ahead issues the op stream a phase-at-a-time program would.
    const unsigned limit =
        std::max(1u, walking_ ? params_.walkBurst : params_.streamBurst);
    ops_.clear();
    for (unsigned i = 0; i < limit; ++i) {
        if (walking_) {
            const std::uint64_t r = xorshift(walkState_);
            const Addr va =
                0x1000000 + (r % params_.walkLines) * lineBytes;
            const bool store =
                (static_cast<double>((r >> 32) & 0xffff) / 65536.0) <
                params_.storeFraction;
            ops_.push_back(store ? sim::MemOp::store(va)
                                 : sim::MemOp::load(va));
        } else {
            const Addr va =
                0x2000000 + (streamPos_ % params_.streamLines) * lineBytes;
            ++streamPos_;
            ops_.push_back(sim::MemOp::pipelinedLoad(va));
        }
    }
    walking_ = !walking_;
    trace_ = {ops_.data(), ops_.size(), nullptr, 0};
    return &trace_;
}

} // namespace wb::perfmon
