#include <algorithm>
#include <exception>
#include <thread>

#include "bench.h"

namespace mantbench {

namespace {

/** Driver-side record of one request. */
struct Track
{
    mant::RequestId id = -1;
    Clock::time_point ref;    ///< due (open loop) or send time
    Clock::time_point submit; ///< when submit() ran
    Clock::time_point active; ///< first observed out of Queued
    bool seenActive = false;
    std::vector<Clock::time_point> tokens;
};

double
ms(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

} // namespace

PhaseResult
runPhase(mant::ServingEngine &engine, const WorkloadSpec &spec,
         const std::vector<Request> &traffic, Tracer *tracer)
{
    const mant::KvPageAllocator *pool = engine.pagePool();
    const mant::ServingEngine::Stats before = engine.stats();
    const size_t n = traffic.size();
    const size_t window = spec.loop == Loop::Closed
                              ? static_cast<size_t>(spec.clients)
                              : n;

    PhaseResult res;
    res.attempted = static_cast<int64_t>(n);
    std::vector<Track> tracks(n);
    std::vector<size_t> inFlight;
    size_t nextToSend = 0;
    std::vector<double> decodeRoundMs, prefillRoundMs, stepMs;
    double inUseSum = 0.0;
    int64_t rounds = 0, peakInUse = 0;

    const Clock::time_point t0 = Clock::now();
    const auto dueAt = [&](size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(traffic[i].dueS));
    };
    Clock::time_point tEnd = t0;
    while (nextToSend < n || !inFlight.empty()) {
        const Clock::time_point now = Clock::now();
        while (nextToSend < n) {
            Clock::time_point ref = now;
            if (spec.loop == Loop::Open) {
                ref = dueAt(nextToSend);
                if (ref > now)
                    break;
                res.lateMs.push_back(ms(ref, now));
            } else if (inFlight.size() >= window) {
                break;
            }
            const Request &r = traffic[nextToSend];
            Track &t = tracks[nextToSend];
            t.ref = ref;
            t.submit = now;
            t.id = engine.submit(
                {.prompt = r.prompt, .maxNewTokens = r.maxNew});
            inFlight.push_back(nextToSend++);
        }
        const bool idle = engine.idle();
        if (idle && spec.loop == Loop::Open && nextToSend < n) {
            // Wait for the next arrival without spinning.
            std::this_thread::sleep_until(dueAt(nextToSend));
            continue;
        }

        const mant::ServingEngine::Stats pre = engine.stats();
        const Clock::time_point s0 = Clock::now();
        if (!idle) {
            try {
                engine.step();
            } catch (const std::exception &e) {
                res.engineError = e.what();
                break;
            }
        }
        const Clock::time_point s1 = Clock::now();
        if (tracer && !idle) {
            const mant::ServingEngine::Stats &post = engine.stats();
            const double d = ms(s0, s1);
            tracer->add("serve.step", s0, s1);
            stepMs.push_back(d);
            if (post.prefillChunks > pre.prefillChunks)
                prefillRoundMs.push_back(d);
            else if (post.decodeBatches > pre.decodeBatches)
                decodeRoundMs.push_back(d);
            if (pool) {
                inUseSum += static_cast<double>(pool->inUsePages());
                peakInUse = std::max(peakInUse, pool->inUsePages());
                ++rounds;
            }
        }

        // Observe every in-flight request after the round.
        for (size_t k = 0; k < inFlight.size();) {
            const size_t i = inFlight[k];
            Track &t = tracks[i];
            const mant::RequestState st = engine.state(t.id);
            if (!t.seenActive && st != mant::RequestState::Queued) {
                t.seenActive = true;
                t.active = s1;
            }
            t.tokens.resize(engine.output(t.id).size(), s1);
            if (!mant::isTerminal(st)) {
                ++k;
                continue;
            }
            tEnd = s1;
            inFlight[k] = inFlight.back();
            inFlight.pop_back();
            if (tracer) {
                const int64_t root = tracer->add(
                    "serve.request", t.submit, s1, -1,
                    static_cast<int64_t>(i));
                if (t.seenActive)
                    tracer->add("serve.queue_wait", t.submit, t.active,
                                root, static_cast<int64_t>(i));
            }
        }
    }
    res.wallS = secondsBetween(t0, tEnd);

    for (size_t i = 0; i < n; ++i) {
        const Track &t = tracks[i];
        if (t.id < 0) {
            res.outputs.emplace_back();
            continue;
        }
        const mant::RequestState st = engine.state(t.id);
        res.done += st == mant::RequestState::Done;
        res.failed += st == mant::RequestState::Failed;
        res.expired += st == mant::RequestState::Expired;
        res.cancelled += st == mant::RequestState::Cancelled;
        res.outputs.push_back(engine.output(t.id));
        res.generated += static_cast<int64_t>(t.tokens.size());

        std::vector<double> gaps;
        for (size_t j = 1; j < t.tokens.size(); ++j)
            gaps.push_back(ms(t.tokens[j - 1], t.tokens[j]));
        double ttft = 0.0;
        if (!t.tokens.empty()) {
            ttft = ms(t.ref, t.tokens.front());
            res.ttftMs.push_back(ttft);
        }
        res.itlMs.insert(res.itlMs.end(), gaps.begin(), gaps.end());
        res.sloMet += st == mant::RequestState::Done &&
                      ttft <= spec.ttftLimitMs &&
                      percentile(gaps, 90.0) <= spec.itlLimitMs;
    }

    if (tracer) {
        const mant::ServingEngine::Stats &after = engine.stats();
        std::vector<double> queueMs;
        for (const Track &t : tracks)
            if (t.seenActive)
                queueMs.push_back(ms(t.submit, t.active));
        const auto delta = [&](int64_t mant::ServingEngine::Stats::*f) {
            return static_cast<double>(after.*f - before.*f);
        };
        const double decoded =
            delta(&mant::ServingEngine::Stats::decodedTokens);
        const double batches =
            delta(&mant::ServingEngine::Stats::decodeBatches);
        const double prefilled =
            delta(&mant::ServingEngine::Stats::prefillTokens);
        const double created =
            pool ? static_cast<double>(pool->createdPages()) : 0.0;
        const double inUseMean =
            rounds > 0 ? inUseSum / static_cast<double>(rounds) : 0.0;
        res.layer = {
            {"serve.decode_round_ms_p50", percentile(decodeRoundMs, 50)},
            {"serve.prefill_round_ms_p50",
             percentile(prefillRoundMs, 50)},
            {"serve.step_ms_p99", percentile(stepMs, 99)},
            {"serve.queue_wait_ms_p50", percentile(queueMs, 50)},
            {"serve.queue_wait_ms_p90", percentile(queueMs, 90)},
            {"serve.batch_width_mean",
             batches > 0 ? decoded / batches : 0.0},
            {"serve.evictions",
             delta(&mant::ServingEngine::Stats::evictions)},
            {"serve.recompute_frac",
             decoded + prefilled > 0
                 ? delta(&mant::ServingEngine::Stats::recomputedTokens) /
                       (decoded + prefilled)
                 : 0.0},
            {"serve.admission_deferrals",
             delta(&mant::ServingEngine::Stats::admissionDeferrals)},
            {"kv_pages.in_use_mean", inUseMean},
            {"kv_pages.peak_in_use", static_cast<double>(peakInUse)},
            {"kv_pages.created", created},
            {"kv_pages.used_over_created",
             created > 0 ? inUseMean / created : 0.0},
        };
    }
    return res;
}

} // namespace mantbench
