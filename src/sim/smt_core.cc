#include "sim/smt_core.hh"

#include <cmath>

#include "common/log.hh"
#include "common/round.hh"

namespace wb::sim
{

SmtCore::SmtCore(MemorySystem &mem, const NoiseModel &noise, Rng &rng,
                 ThreadId tidBase, ThreadId tidSpan)
    : mem_(&mem), fastHier_(dynamic_cast<Hierarchy *>(&mem)),
      noise_(noise), rng_(rng), obsGranule_(noise.timerGranule()),
      tidBase_(tidBase), tidSpan_(tidSpan)
{
}

void
SmtCore::rebind(MemorySystem &mem)
{
    mem_ = &mem;
    fastHier_ = dynamic_cast<Hierarchy *>(&mem);
    for (auto &ctx : threads_)
        ctx.spinStackKnown = false;
}

void
SmtCore::descheduleShift(Cycles from, Cycles resume, Cycles grace)
{
    for (auto &ctx : threads_) {
        if (ctx.halted || ctx.time >= resume)
            continue;
        if (ctx.quiescent || ctx.time >= grace) {
            const Cycles offset = ctx.time > from ? ctx.time - from : 0;
            ctx.time = resume + offset;
        }
    }
}

ThreadId
SmtCore::addThread(Program *program, AddressSpace space, Cycles startTime)
{
    if (program == nullptr)
        panic("SmtCore::addThread: null program");
    if (tidSpan_ != 0 && threads_.size() >= tidSpan_) {
        fatalf("SmtCore::addThread: front-end at tid base ", tidBase_,
               " exceeds its ", tidSpan_,
               "-thread reservation (next front-end's counters would "
               "be silently shared)");
    }
    ThreadCtx ctx;
    ctx.program = program;
    ctx.space = space;
    ctx.time = startTime;
    threads_.push_back(ctx);
    return tidBase_ + static_cast<ThreadId>(threads_.size() - 1);
}

Cycles
SmtCore::quantize(Cycles t) const
{
    const Cycles g = obsGranule_;
    if (g <= 1)
        return t; // per-op hot path: skip the division entirely
    return (t / g) * g;
}

Cycles
SmtCore::nextTime() const
{
    Cycles next = noPendingTime;
    for (const auto &ctx : threads_)
        if (!ctx.halted && ctx.time < next)
            next = ctx.time;
    return next;
}

Cycles
SmtCore::maxTime() const
{
    Cycles maxTime = 0;
    for (const auto &ctx : threads_)
        maxTime = std::max(maxTime, ctx.time);
    return maxTime;
}

bool
SmtCore::stepEarliest(Cycles horizon)
{
    // Pick the earliest non-halted thread (ties: lowest id).
    ThreadId pick = 0;
    bool found = false;
    for (ThreadId t = 0; t < threads_.size(); ++t) {
        if (threads_[t].halted)
            continue;
        if (!found || threads_[t].time < threads_[pick].time) {
            pick = t;
            found = true;
        }
    }
    if (!found || threads_[pick].time >= horizon)
        return false;
    step(threads_[pick], pick, /*bound=*/0);
    return true;
}

void
SmtCore::runUntil(Cycles bound)
{
    if (!noise_.traceExecution) {
        while (stepEarliest(bound)) {
        }
        return;
    }
    const ThreadId n = static_cast<ThreadId>(threads_.size());
    if (n == 2 && !threads_[0].halted && !threads_[1].halted) {
        // The SMT pair: same pick/tie/bound rules as the generic loop
        // below, hand-specialized because this comparison runs once
        // per simulated op in every two-thread deployment.
        ThreadCtx &t0 = threads_[0];
        ThreadCtx &t1 = threads_[1];
        do {
            if (t0.time <= t1.time) {
                if (t0.time >= bound)
                    return;
                step(t0, 0, std::min(bound, t1.time + 1));
            } else {
                if (t1.time >= bound)
                    return;
                step(t1, 1, std::min(bound, t0.time));
            }
        } while (!t0.halted && !t1.halted);
        // A thread halted: the generic loop handles the remainder.
    }
    for (;;) {
        // Pick the earliest non-halted thread (ties: lowest id).
        ThreadId pick = 0;
        bool found = false;
        for (ThreadId t = 0; t < n; ++t) {
            if (threads_[t].halted)
                continue;
            if (!found || threads_[t].time < threads_[pick].time) {
                pick = t;
                found = true;
            }
        }
        if (!found || threads_[pick].time >= bound)
            return;

        // The picked thread keeps winning this pick while, for every
        // lower-indexed sibling j, time < t_j (a tie goes to j) and,
        // for every higher-indexed one, time <= t_j (the tie is ours).
        // Running it up to that limit in one go preserves the global
        // earliest-op-first order exactly while letting compiled
        // traces execute as whole slices.
        Cycles tb = bound;
        for (ThreadId t = 0; t < n; ++t) {
            if (t == pick || threads_[t].halted)
                continue;
            const Cycles lim =
                t < pick ? threads_[t].time : threads_[t].time + 1;
            tb = std::min(tb, lim);
        }
        step(threads_[pick], pick, tb);
    }
}

Cycles
SmtCore::run(Cycles horizon)
{
    if (threads_.empty())
        return 0;
    runUntil(horizon);
    return maxTime();
}

Cycles
SmtCore::threadTime(ThreadId tid) const
{
    return threads_.at(tid - tidBase_).time;
}

bool
SmtCore::halted(ThreadId tid) const
{
    return threads_.at(tid - tidBase_).halted;
}

Cycles
SmtCore::contentionDelay(const ThreadCtx &ctx, ThreadId idx)
{
    // SMT port contention: if a sibling issued a memory op within the
    // coincidence window, this op (or batch: the burst issues back to
    // back, so the window is evaluated once at issue) may stall.
    Cycles delay = 0;
    for (ThreadId o = 0; o < threads_.size(); ++o) {
        if (o == idx || !threads_[o].everIssuedMem)
            continue;
        const Cycles ot = threads_[o].lastMemOpAt;
        const Cycles d = ot > ctx.time ? ot - ctx.time : ctx.time - ot;
        if (d <= noise_.portContentionWindow &&
            rng_.chance(noise_.portContentionProb)) {
            delay += noise_.portContentionDelay;
        }
    }
    return delay;
}

std::uint64_t
SmtCore::drawPreemptGap()
{
    const double p = noise_.preemptProbPerOp;
    if (p >= 1.0)
        return 0;
    double u;
    do {
        u = rng_.uniform();
    } while (u <= 0.0);
    // Geometric(p): failures before the first success.
    return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

unsigned
SmtCore::preemptHits(std::size_t trials)
{
    if (!preemptGapValid_) {
        preemptCountdown_ = drawPreemptGap();
        preemptGapValid_ = true;
    }
    unsigned hits = 0;
    while (preemptCountdown_ < trials) {
        trials -= preemptCountdown_ + 1;
        ++hits;
        preemptCountdown_ = drawPreemptGap();
    }
    preemptCountdown_ -= trials;
    return hits;
}

bool
SmtCore::execOp(ThreadCtx &ctx, ThreadId tid, ThreadId idx,
                const MemOp &op, OpResult &res)
{
    switch (op.kind) {
      case MemOp::Kind::Load:
      case MemOp::Kind::Store:
      case MemOp::Kind::LoadUntil: {
        const bool isWrite = op.kind == MemOp::Kind::Store;
        const Addr paddr = ctx.space.translate(op.vaddr);
        const AccessResult ar = memAccess(tid, paddr, isWrite);
        Cycles lat = ar.latency + noise_.opOverhead;
        if (op.pipelined && ar.l1Hit)
            lat = noise_.pipelinedHitCost;

        // Skipped entirely when contention is disabled (quiet noise
        // models) so the per-op sibling scan stays off the hot path.
        if (noise_.portContentionProb > 0.0)
            lat += contentionDelay(ctx, idx);
        if (noise_.preemptProbPerOp > 0.0 && preemptHits(1) != 0)
            lat += static_cast<Cycles>(rng_.exponential(noise_.preemptMean));

        ctx.time += lat;
        ctx.lastMemOpAt = ctx.time;
        ctx.everIssuedMem = true;
        res.latency = lat;
        res.servedBy = ar.servedBy;
        res.l1Hit = ar.l1Hit;
        res.l1VictimDirty = ar.l1VictimDirty;
        break;
      }
      case MemOp::Kind::LoadBatch:
      case MemOp::Kind::StoreBatch: {
        // A whole sweep (prime loop, pointer chase, warm-up) executed
        // through the hierarchy's fused batch path in one core step.
        // The burst issues back to back, so the sibling coincidence
        // window is evaluated once at issue rather than per element;
        // per-op-sensitive loops (the hit-hit channel's contention
        // hammering) must keep issuing scalar ops or a LoadUntil.
        const bool isWrite = op.kind == MemOp::Kind::StoreBatch;
        const BatchAccessResult br =
            memAccessBatch(tid, ctx.space, op.addrs, op.count, isWrite);
        Cycles lat = br.totalLatency +
                     noise_.opOverhead * static_cast<Cycles>(op.count);
        if (noise_.portContentionProb > 0.0)
            lat += contentionDelay(ctx, idx);
        if (noise_.preemptProbPerOp > 0.0) {
            // Each element of the burst is individually preemptible,
            // as on the scalar path; the geometric countdown consumes
            // all of the burst's trials in one call.
            const unsigned hits = preemptHits(op.count);
            for (unsigned i = 0; i < hits; ++i) {
                lat += static_cast<Cycles>(
                    rng_.exponential(noise_.preemptMean));
            }
        }
        ctx.time += lat;
        ctx.lastMemOpAt = ctx.time;
        ctx.everIssuedMem = true;
        res.latency = lat;
        res.batch = br;
        break;
      }
      case MemOp::Kind::Flush: {
        if (!noise_.observer.hasFlush) {
            // An eviction-only observer has no clflush. A program that
            // issues one anyway would be silently modelling a
            // capability the scenario denies — fail loudly instead
            // (the flush-family honesty bugfix; see sim/observer.hh).
            fatalf("SmtCore: Flush op under an observer with "
                   "hasFlush=false (", observerClassName(noise_.observer.cls),
                   ") — the program must fall back to eviction");
        }
        const Addr paddr = ctx.space.translate(op.vaddr);
        const Cycles lat = memFlush(tid, paddr) + noise_.opOverhead;
        ctx.time += lat;
        res.latency = lat;
        break;
      }
      case MemOp::Kind::TscRead: {
        ctx.time += noise_.tscReadCost;
        res.latency = noise_.tscReadCost;
        break;
      }
      case MemOp::Kind::SpinUntil: {
        // The spin loop's bookkeeping touches the thread's stack line
        // once per wait. Normally an L1 hit, but a co-runner thrashing
        // the L1 turns these into real misses — which is how a benign
        // co-scheduled workload inflates a spinning process' L1 miss
        // rate (paper Table VII, "sender & g++"). The translation is
        // computed once per thread: the stack line never remaps, and
        // the shared-segment scan would otherwise run on every spin.
        if (!ctx.spinStackKnown) {
            const Addr stackVa =
                0xdead0000 + static_cast<Addr>(tid) * 4096;
            ctx.spinStackPaddr = ctx.space.translate(stackVa);
            ctx.spinStackKnown = true;
        }
        memAccess(tid, ctx.spinStackPaddr, false);

        Cycles target = op.until;
        if (noise_.observer.timerGranularity > 1 && target > 0) {
            // A coarse-timer program spins on its floored TSC: the
            // comparison `TSC < target` only releases once the floored
            // reading reaches target, i.e. at the next granule
            // boundary at or above it. (Gated on the *observer*
            // granularity so legacy tscGranularity-only platforms keep
            // their pre-observer release semantics and RNG streams.)
            target = ((target + obsGranule_ - 1) / obsGranule_) *
                     obsGranule_;
        }
        Cycles release = std::max(ctx.time, target);
        double overshoot = 0.0;
        if (noise_.spinOvershootMean > 0.0)
            overshoot += rng_.exponential(noise_.spinOvershootMean);
        if (noise_.preemptProbPerSpin > 0.0 &&
            rng_.chance(noise_.preemptProbPerSpin)) {
            overshoot += rng_.exponential(noise_.preemptMean);
        }
        release += roundNonNegative(overshoot);
        res.latency = release - ctx.time;
        if (noise_.spinIterCycles > 0) {
            // Credit the busy-wait loop's bookkeeping loads (they all
            // hit L1; see NoiseModel).
            memCounters(tid).spinLoads +=
                (res.latency / noise_.spinIterCycles) *
                noise_.spinLoadsPerIter;
        }
        ctx.time = release;
        break;
      }
      case MemOp::Kind::Delay: {
        ctx.time += op.until;
        res.latency = op.until;
        break;
      }
      case MemOp::Kind::Halt:
        ctx.halted = true;
        return false;
    }

    ctx.quiescent = op.kind == MemOp::Kind::SpinUntil ||
                    op.kind == MemOp::Kind::Delay;
    if (noise_.observer.timerJitterSigma > 0.0 &&
        (op.kind == MemOp::Kind::TscRead ||
         op.kind == MemOp::Kind::SpinUntil)) {
        // Sandbox timer jitter perturbs the *reading*, not the clock:
        // the thread's real time is unaffected, only the value the
        // program sees through the coarse timer moves. Applied to the
        // two op kinds whose tsc a program actually consumes, and only
        // when configured, so the default observer draws nothing.
        const double raw =
            static_cast<double>(ctx.time) +
            rng_.gaussian(0.0, noise_.observer.timerJitterSigma);
        res.tsc = quantize(raw <= 0.0 ? 0 : roundNonNegative(raw));
    } else {
        res.tsc = quantize(ctx.time);
    }
    return true;
}

void
SmtCore::step(ThreadCtx &ctx, ThreadId idx, Cycles bound)
{
    const ThreadId tid = tidBase_ + idx; //!< system-wide hardware tid

    // Run trace ops back to back, pausing (with resume state in the
    // ThreadCtx) when the bound is reached, so a sibling or the
    // scheduler gets control exactly where single-stepping would have
    // handed it over. A trace that ends below the bound hands over to
    // the program's next one: the thread would win the next pick.
    for (;;) {
        if (ctx.trace == nullptr) {
            ProcView view(tid, ctx.time, rng_, noise_);
            ctx.trace = ctx.program->nextTrace(view);
            if (ctx.trace == nullptr) {
                ctx.halted = true;
                return;
            }
            ctx.tracePos = 0;
            ctx.traceNextResult = 0;
        }
        const Trace &tr = *ctx.trace;
        const MemOp &op = tr.ops[ctx.tracePos];
        if (op.kind == MemOp::Kind::LoadUntil) {
            if (ctx.time >= op.until) {
                // Deadline reached: the next op runs in this same pick.
                if (ctx.traceNextResult < tr.resultCount &&
                    tr.resultPoints[ctx.traceNextResult] == ctx.tracePos)
                    panic("SmtCore: a LoadUntil op is a result point");
                if (++ctx.tracePos >= tr.count)
                    ctx.trace = nullptr;
                continue;
            }
            // One hammer iteration: a whole op for the bound.
            OpResult res;
            execOp(ctx, tid, idx, op, res);
            if (bound == 0 || ctx.time >= bound)
                return;
            continue;
        }
        OpResult res;
        if (!execOp(ctx, tid, idx, op, res)) {
            ctx.trace = nullptr;
            return;
        }
        const auto opIdx = static_cast<std::uint32_t>(ctx.tracePos++);
        if (ctx.traceNextResult < tr.resultCount &&
            tr.resultPoints[ctx.traceNextResult] == opIdx) {
            ++ctx.traceNextResult;
            ProcView after(tid, ctx.time, rng_, noise_);
            ctx.program->onTraceResult(opIdx, op, res, after);
        }
        if (ctx.tracePos >= tr.count)
            ctx.trace = nullptr;
        if (bound == 0 || ctx.time >= bound)
            return;
    }
}

} // namespace wb::sim
