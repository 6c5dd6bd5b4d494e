/**
 * @file
 * The sweep harness the CI sweep examples are written on
 * (examples/{platform_sweep,noise_sweep,observer_sweep,
 * capacity_frontier,detection_roc,tenant_scaling}.cpp):
 *
 *  - parseSweepArgs: the shared `[count] [-j N]` command line, fatal
 *    with the offending argument named;
 *  - fanOutSeeds: a cell is a configuration plus a seed list. Every
 *    (cell, seed) run is one job of a single SweepRunner::map, and the
 *    results come back as one vector per cell in seed order, so a
 *    table assembled from them is byte-identical at any -j;
 *  - poolSeeds: the one pooling rule for a cell's ChannelResults.
 *    Each seed is measured, unaligned or closed; the BER pools
 *    measured seeds only and the goodput every seed that was not
 *    closed, so no sentinel BER is ever averaged into a mean;
 *  - berText / goodputText / noteOutcomes / gridTable / berGrid: one
 *    rendering of a pooled cell, its legend, and a rows x columns
 *    table. A cell reads "closed" only when every seed was closed;
 *    otherwise it reads the BER over its m measured seeds of n, with
 *    "(m/n)" appended when m < n, or "no frame" when m = 0.
 */

#ifndef WB_CHAN_SWEEP_HH
#define WB_CHAN_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chan/channel.hh"
#include "common/table.hh"
#include "sim/sweep_runner.hh"

namespace wb::chan
{

/** A sweep's command line: `[count] [-j N]`, in any order. */
struct SweepArgs
{
    unsigned count = 1; //!< the positional count (seeds, frames, pairs)
    unsigned jobs = 1;  //!< -j worker count; 0 = hardware concurrency
};

/**
 * Parse `[count] [-j N]`. @p countName names the positional count in
 * messages; @p defaultCount applies when it is absent. Fatal, naming
 * the argument, on a non-numeric count or -j value, a -j without a
 * value, or a count of 0.
 */
SweepArgs parseSweepArgs(int argc, const char *const *argv,
                         const std::string &countName, unsigned defaultCount);

/** Seeds 1..n: the seed list every multi-seed sweep cell runs. */
std::vector<std::uint64_t> seedRange(unsigned n);

/** One sweep cell: a configuration run once per seed. */
template <typename Config>
struct SweepCell
{
    Config cfg;
    std::vector<std::uint64_t> seeds;
};

/**
 * Run @p run on every (cell, seed) pair — a copy of the cell's config
 * with `seed` set — as one flat SweepRunner::map. Returns one vector
 * per cell, in seed order; a cell with no seeds gets an empty vector.
 * @p run must be shared-nothing (SweepRunner's contract).
 */
template <typename Config, typename Run,
          typename Result = std::invoke_result_t<Run &, const Config &>>
std::vector<std::vector<Result>>
fanOutSeeds(sim::SweepRunner &pool,
            const std::vector<SweepCell<Config>> &cells, Run &&run)
{
    std::vector<std::pair<std::size_t, std::uint64_t>> jobs;
    for (std::size_t c = 0; c < cells.size(); ++c)
        for (std::uint64_t seed : cells[c].seeds)
            jobs.emplace_back(c, seed);
    std::vector<Result> flat =
        pool.map<Result>(jobs.size(), [&](std::size_t j) {
            Config cfg = cells[jobs[j].first].cfg;
            cfg.seed = jobs[j].second;
            return run(cfg);
        });

    std::vector<std::vector<Result>> perCell(cells.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        perCell[jobs[j].first].push_back(std::move(flat[j]));
    return perCell;
}

/** Mean of field(run) over @p runs (sum, then one division). */
template <typename Run, typename Field>
double
meanOf(const std::vector<Run> &runs, Field &&field)
{
    double sum = 0.0;
    for (const Run &run : runs)
        sum += double(std::invoke(field, run));
    return sum / double(runs.size());
}

/**
 * One channel cell's seeds, pooled. Each seed's run is closed
 * (ChannelResult::closed: its calibration saw no signal gap, so its
 * BER is chance), unaligned (not closed, but framesScored == 0: its
 * BER is a sentinel) or measured (a frame scored).
 */
struct ChannelPool
{
    unsigned measured = 0;
    unsigned unaligned = 0;
    unsigned closed = 0;
    double ber = 0.0;          //!< mean over measured seeds (0 if none)
    double goodputKbps = 0.0;  //!< mean over seeds not closed (0 if none)
    unsigned repetition = 1;   //!< largest repetition factor R
    bool discoveryVerified = true; //!< every seed verified its sets

    unsigned seeds() const { return measured + unaligned + closed; }
    bool allClosed() const { return closed > 0 && closed == seeds(); }
};

/** Pool one cell's runs. */
ChannelPool poolSeeds(const std::vector<ChannelResult> &runs);

/** poolSeeds over every cell of a fan-out. */
std::vector<ChannelPool>
poolCells(const std::vector<std::vector<ChannelResult>> &cells);

/**
 * BER cell: "closed" when every seed was closed, "no frame" when no
 * seed was measured, else the BER with "(m/n)" when only m of the n
 * seeds were measured.
 */
std::string berText(const ChannelPool &pool, int precision);

/** Goodput cell: "-" when every seed was closed, else the goodput. */
std::string goodputText(const ChannelPool &pool, int precision);

/**
 * Note under @p table what each of "closed", "no frame" and "(m/n)"
 * means, for those that a cell of @p pools renders. Pools with no
 * seeds (cells that did not run) are skipped.
 */
void noteOutcomes(Table &table, const std::vector<ChannelPool> &pools);

/**
 * A rows x columns table: header {corner, columns...}, and row r is
 * {rows[r], cell(r, 0), ..., cell(r, columns.size() - 1)}.
 */
Table gridTable(std::string title, std::string corner,
                const std::vector<std::string> &rows,
                const std::vector<std::string> &columns,
                const std::function<std::string(std::size_t, std::size_t)>
                    &cell);

/**
 * gridTable of BER cells: cell (r, c) is berText of
 * pools[r * columns.size() + c], and noteOutcomes explains them.
 */
Table berGrid(std::string title, std::string corner,
              const std::vector<std::string> &rows,
              const std::vector<std::string> &columns,
              const std::vector<ChannelPool> &pools, int precision);

} // namespace wb::chan

#endif // WB_CHAN_SWEEP_HH
