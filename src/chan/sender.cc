#include "chan/sender.hh"

#include "common/log.hh"

namespace wb::chan
{

SenderProgram::SenderProgram(std::vector<Addr> lines,
                             std::vector<unsigned> dSequence, Cycles ts)
    : PacedProgram(ts), lines_(std::move(lines)),
      dSeq_(std::move(dSequence))
{
    unsigned maxD = 0;
    for (unsigned d : dSeq_)
        maxD = std::max(maxD, d);
    if (maxD > lines_.size())
        fatalf("SenderProgram: needs ", maxD, " lines, got ",
               lines_.size());
}

void
SenderProgram::buildSlot(std::size_t index, const sim::OpResult &,
                         sim::ProcView &)
{
    if (index >= dSeq_.size()) {
        halt();
        return;
    }
    // Algorithm 1: dirty the symbol's d lines as one batched store
    // sweep through the fused miss path, then wait out the slot.
    if (const unsigned d = dSeq_[index]; d > 0)
        op(sim::MemOp::storeBatch(lines_.data(), d));
}

} // namespace wb::chan
