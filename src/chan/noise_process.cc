#include "chan/noise_process.hh"

#include "common/log.hh"

namespace wb::chan
{

NoiseProcess::NoiseProcess(std::vector<Addr> lines,
                           const NoiseProcessConfig &cfg)
    : PacedProgram(cfg.period), lines_(std::move(lines)), cfg_(cfg)
{
    if (lines_.empty())
        fatalf("NoiseProcess: needs at least one line");
}

void
NoiseProcess::buildSlot(std::size_t index, const sim::OpResult &,
                        sim::ProcView &view)
{
    if (index == 0)
        return;
    // chance() consumes no draws for the pure 0.0/1.0 fractions, so
    // all-load and all-store noise stays deterministic relative to
    // the run RNG (and forms a single run each).
    runs_.clear();
    for (unsigned i = 0; i < cfg_.burstLines; ++i) {
        const Addr line = lines_[nextLine_];
        nextLine_ = (nextLine_ + 1) % lines_.size();
        const bool isStore = view.rng().chance(cfg_.storeFraction);
        if (runs_.empty() || runs_.back().isStore != isStore)
            runs_.push_back({isStore, {}});
        runs_.back().lines.push_back(line);
    }
    for (const BurstRun &run : runs_) {
        op(run.isStore
               ? sim::MemOp::storeBatch(run.lines.data(), run.lines.size())
               : sim::MemOp::loadBatch(run.lines.data(), run.lines.size()),
           /*hooked=*/true);
    }
}

void
NoiseProcess::onOpResult(const sim::OpResult &res, sim::ProcView &)
{
    accesses_ += res.batch.accesses;
}

} // namespace wb::chan
