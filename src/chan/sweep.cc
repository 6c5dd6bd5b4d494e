#include "chan/sweep.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <numeric>

#include "common/log.hh"

namespace wb::chan
{

SweepArgs
parseSweepArgs(int argc, const char *const *argv,
               const std::string &countName, unsigned defaultCount)
{
    // A whole decimal unsigned, or fatal naming the argument.
    const auto parse = [](const std::string &name, const char *text) {
        unsigned value = 0;
        const char *end = text + std::strlen(text);
        const auto [ptr, ec] = std::from_chars(text, end, value);
        if (ec != std::errc() || ptr != end)
            fatalf(name, ": expected a non-negative integer, got '", text,
                   "'");
        return value;
    };
    SweepArgs args{defaultCount, 1};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-j") == 0) {
            if (i + 1 == argc)
                fatal("-j: missing worker count");
            args.jobs = parse("-j", argv[++i]);
        } else {
            args.count = parse(countName, argv[i]);
            if (args.count == 0)
                fatalf(countName, ": must be at least 1, got '", argv[i],
                       "'");
        }
    }
    return args;
}

std::vector<std::uint64_t>
seedRange(unsigned n)
{
    std::vector<std::uint64_t> seeds(n);
    std::iota(seeds.begin(), seeds.end(), std::uint64_t(1));
    return seeds;
}

ChannelPool
poolSeeds(const std::vector<ChannelResult> &runs)
{
    ChannelPool pool;
    double berSum = 0.0;
    double goodputSum = 0.0;
    for (const ChannelResult &res : runs) {
        if (res.closed) { // closed whether or not it aligned
            ++pool.closed;
        } else if (res.framesScored == 0) {
            ++pool.unaligned;
            goodputSum += res.goodputKbps;
        } else {
            ++pool.measured;
            berSum += res.ber;
            goodputSum += res.goodputKbps;
        }
        pool.repetition = std::max(pool.repetition, res.repetition);
        pool.discoveryVerified =
            pool.discoveryVerified && res.evictionDiscoveryVerified;
    }
    if (pool.measured > 0)
        pool.ber = berSum / double(pool.measured);
    if (pool.measured + pool.unaligned > 0)
        pool.goodputKbps = goodputSum / double(pool.measured + pool.unaligned);
    return pool;
}

std::vector<ChannelPool>
poolCells(const std::vector<std::vector<ChannelResult>> &cells)
{
    std::vector<ChannelPool> pools;
    for (const auto &runs : cells)
        pools.push_back(poolSeeds(runs));
    return pools;
}

std::string
berText(const ChannelPool &pool, int precision)
{
    if (pool.allClosed())
        return "closed";
    if (pool.measured == 0)
        return "no frame";
    std::string text = Table::pct(pool.ber, precision);
    if (pool.measured < pool.seeds()) {
        text += " (" + std::to_string(pool.measured) + "/" +
                std::to_string(pool.seeds()) + ")";
    }
    return text;
}

std::string
goodputText(const ChannelPool &pool, int precision)
{
    return pool.allClosed() ? "-" : Table::num(pool.goodputKbps, precision);
}

void
noteOutcomes(Table &table, const std::vector<ChannelPool> &pools)
{
    bool closed = false, noFrame = false, partial = false;
    for (const ChannelPool &pool : pools) {
        if (pool.seeds() == 0)
            continue;
        closed |= pool.allClosed();
        noFrame |= !pool.allClosed() && pool.measured == 0;
        partial |= pool.measured > 0 && pool.measured < pool.seeds();
    }
    if (closed) {
        table.note("\"closed\": every seed's calibration showed no signal "
                   "gap, so its BER would be chance, not a measurement.");
    }
    if (noFrame)
        table.note("\"no frame\": no seed aligned a single frame.");
    if (partial) {
        table.note("\"(m/n)\": BER over the m of n seeds that scored a "
                   "frame; the others were closed or aligned none.");
    }
}

Table
gridTable(std::string title, std::string corner,
          const std::vector<std::string> &rows,
          const std::vector<std::string> &columns,
          const std::function<std::string(std::size_t, std::size_t)> &cell)
{
    Table table(std::move(title));
    std::vector<std::string> head{std::move(corner)};
    head.insert(head.end(), columns.begin(), columns.end());
    table.header(std::move(head));
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::string> row{rows[r]};
        for (std::size_t c = 0; c < columns.size(); ++c)
            row.push_back(cell(r, c));
        table.row(std::move(row));
    }
    return table;
}

Table
berGrid(std::string title, std::string corner,
        const std::vector<std::string> &rows,
        const std::vector<std::string> &columns,
        const std::vector<ChannelPool> &pools, int precision)
{
    Table table = gridTable(
        std::move(title), std::move(corner), rows, columns,
        [&](std::size_t r, std::size_t c) {
            return berText(pools[r * columns.size() + c], precision);
        });
    noteOutcomes(table, pools);
    return table;
}

} // namespace wb::chan
