#include "chan/receiver.hh"

namespace wb::chan
{

ReceiverProgram::ReceiverProgram(std::vector<Addr> replacementA,
                                 std::vector<Addr> replacementB, Cycles tr,
                                 std::size_t sampleCount,
                                 unsigned warmupSweeps,
                                 CalibrationProbe probe)
    : PacedProgram(tr, /*measNoise=*/true),
      chaseA_(std::move(replacementA)), chaseB_(std::move(replacementB)),
      sampleCount_(sampleCount), probe_(probe)
{
    for (unsigned sweep = 0; sweep < warmupSweeps; ++sweep) {
        for (Addr a : chaseA_.order())
            warmupOrder_.push_back(a);
        for (Addr a : chaseB_.order())
            warmupOrder_.push_back(a);
    }
    // Untimed initialization: all warm-up sweeps in one batch.
    if (!warmupOrder_.empty())
        startupOp(sim::MemOp::loadBatch(warmupOrder_.data(),
                                        warmupOrder_.size()));
}

void
ReceiverProgram::buildSlot(std::size_t index, const sim::OpResult &,
                           sim::ProcView &view)
{
    if (index == 0)
        return;
    PointerChase &chase = useA_ ? chaseA_ : chaseB_;
    useA_ = !useA_;
    const std::vector<Addr> &set = chase.order();
    const sim::NoiseModel &noise = view.noise();
    const bool flush = probe_ == CalibrationProbe::FlushLatency;
    if (flush) {
        // Untimed prime: the sender's dirty lines in the target set
        // join the write-back queue the timed clflush drains.
        op(sim::MemOp::loadBatch(set.data(), set.size()));
    } else {
        chase.reshuffle(view.rng()); // defeats the prefetcher
    }
    // Coarse-timer observer: offset each measurement by a uniform
    // delay in [0, granule) so the quantized reading becomes an
    // unbiased estimator of the true latency — the property the
    // repetition decoder's block averaging integrates against
    // (docs/OBSERVERS.md). The flush probe draws it under any coarse
    // observer, a jitter-only one (granule 1) included.
    if (noise.observer.coarseTimer() &&
        (flush || noise.timerGranule() > 1))
        op(sim::MemOp::delay(view.rng().below(noise.timerGranule())));
    openWindow();
    op(flush ? sim::MemOp::flush(set[0])
             : sim::MemOp::loadBatch(set.data(), set.size()));
    closeWindow();
    if (index >= sampleCount_)
        halt();
}

} // namespace wb::chan
