/**
 * @file
 * Shared pieces of the serving benchmark: workload parameters, the
 * seeded traffic generator, the model fixture, the serial oracle, the
 * span recorder, and the measured serving phase.
 *
 * Everything here calls the library's public headers only; every clock
 * read lives in this directory, so timing never enters src/.
 */

#ifndef MANT_BENCHMARK_BENCH_H_
#define MANT_BENCHMARK_BENCH_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "model/model_file.h"
#include "serve/serving_engine.h"

namespace mantbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** How requests reach the engine. */
enum class Loop
{
    Open,    ///< sent on a fixed schedule, whatever the engine does
    Closed,  ///< `clients` callers, each sending after its last reply
    Offline, ///< every request submitted at t0
};

/** One workload's fixed parameters (benchmark/config.json). */
struct WorkloadSpec
{
    std::string name;
    Loop loop = Loop::Closed;
    /** Open loop: the arrival rate. Closed loop and offline: sizes the
     *  run, requests = requestsPerS × seconds. */
    double requestsPerS = 0.0;
    int64_t requests = 0;
    int64_t clients = 1; ///< closed loop only
    int64_t promptMin = 1, promptMax = 1;
    int64_t outMin = 1, outMax = 1;
    int64_t slots = 1;
    int64_t chunk = 0;
    /** Pool as a share of slots × worst-case pages per stream; 0 means
     *  an unbounded pool. */
    double poolFrac = 0.0;
    double ttftLimitMs = 0.0; ///< <= 0: the workload has no SLO
    double itlLimitMs = 0.0;
};

/** One generated request. */
struct Request
{
    std::vector<int32_t> prompt;
    int64_t maxNew = 0;
    double dueS = 0.0; ///< open loop: send time after phase start
};

/**
 * Seeded traffic: `count` requests with uniform prompt and output
 * lengths and (open loop) exponential inter-arrival gaps. Each of the
 * three draws its quantiles from a low-discrepancy sequence whose start
 * the seed picks, so every seed offers nearly the same total work at
 * the same pace, and no seed bunches long requests together; the seed
 * sets which request gets which length, the arrival pattern and the
 * token ids.
 */
std::vector<Request> makeTraffic(const WorkloadSpec &spec, uint64_t seed,
                                 int64_t count, int64_t vocab);

/** Median decode context of a request set: median over requests of
 *  prompt + maxNew / 2. */
int64_t medianContext(const std::vector<Request> &traffic);

// ---------------------------------------------------------------- fixture

/** Llama-family model: 2 layers, dModel 512, 4 heads, dFfn 1408, vocab
 *  2048, with llama-2-7b weight and activation statistics. */
mant::ModelProfile benchProfile();

constexpr int64_t kMaxSeq = 512;

/** mantFusedAttentionSetup(64): fused tile GEMM + fused KV attention. */
mant::QuantSetup benchSetup();

/** Engine configuration for a workload (pool sized from the model). */
mant::ServingConfig engineConfig(const WorkloadSpec &spec);

/** Linear-layer weight count of the benchmark model. */
int64_t linearWeights();

/** Per-rep set-up times, in seconds. */
struct SetupTimes
{
    std::vector<double> total, exportS, loadS;
};

/**
 * Time `reps` set-ups in a child process: generate the weights once
 * (fixture, untimed), then per rep encode + export to `modelPath`,
 * LoadedModel::load it and construct a ServingEngine over it. The
 * child keeps the float weights and encode temporaries out of this
 * process's peak RSS. Must run before this process starts the thread
 * pool. Throws std::runtime_error when the child fails.
 */
SetupTimes timeSetupInChild(const std::string &modelPath, int reps,
                            const mant::ServingConfig &cfg);

/** Greedy single-stream generation on the model's default stream:
 *  prefill, then decodeStep feedback. The serving engine must match it
 *  token for token. */
std::vector<int32_t> serialOracle(mant::Transformer &model,
                                  std::span<const int32_t> prompt,
                                  int64_t maxNew);

/** FNV-1a over every output, each prefixed by its length. */
uint64_t fnv1a(const std::vector<std::vector<int32_t>> &outputs);

/** VmHWM of this process in MB (0 when unavailable). */
double peakRssMb();

// ------------------------------------------------------------------ trace

/** One recorded span; times in ns since the recorder was made. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;  ///< index of the causing span, -1 for roots
    int64_t request = -1; ///< request index, -1 when not per request
};

/** In-memory span list, written out as JSONL when the run ends. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int64_t add(std::string name, Clock::time_point start,
                Clock::time_point end, int64_t parent = -1,
                int64_t request = -1);

    /** Open a span now (for parents whose children come first); end()
     *  closes it. */
    int64_t
    begin(std::string name, int64_t parent = -1)
    {
        const Clock::time_point now = Clock::now();
        return add(std::move(name), now, now, parent);
    }
    void end(int64_t span);

    /** Throws std::runtime_error when the file cannot be written. */
    void writeJsonl(const std::string &path) const;

  private:
    int64_t ns(Clock::time_point t) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Ordered name → value list, printed as one JSON object. */
using Metrics = std::vector<std::pair<std::string, double>>;

// ---------------------------------------------------------------- serving

/** What one measured serving phase observed. */
struct PhaseResult
{
    double wallS = 0.0;
    int64_t generated = 0;
    std::vector<double> ttftMs, itlMs;
    int64_t attempted = 0, done = 0, failed = 0, expired = 0,
            cancelled = 0, sloMet = 0;
    std::vector<double> lateMs; ///< open loop: send minus due time
    std::vector<std::vector<int32_t>> outputs;
    std::string engineError; ///< what escaped step(), if anything

    /** Filled by a traced phase only. */
    Metrics layer;
};

/**
 * Drive `traffic` through `engine` from one thread: submit per the
 * workload's loop, step() while work remains, sleep until the next due
 * time while idle, and read each request's state and output after
 * every step. With a tracer, also records per-round and per-request
 * spans and fills PhaseResult::layer with the serve and kv_pages
 * metrics.
 */
PhaseResult runPhase(mant::ServingEngine &engine, const WorkloadSpec &spec,
                     const std::vector<Request> &traffic, Tracer *tracer);

// ---------------------------------------------------------------- replays

/**
 * Time the model layer from outside: decodeBatch at M ∈ {1,2,4,8} and
 * prefillChunk at T ∈ {32,128} on streams prefilled to `ctx` tokens.
 * Appends model.* metrics.
 */
void replayModel(mant::Transformer &model, int64_t ctx, uint64_t seed,
                 Tracer &tracer, Metrics &out);

/**
 * Time the core kernels on the loaded tile views and on a HeadKvCache:
 * activation encode and the four GEMM shapes at M ∈ {1,8,32,128},
 * attention at L ∈ {128, 512},
 * KV append, a stream copy the size of the weights, and the share of a
 * decode step the timed ops do not cover. Needs the model.* metrics
 * already in `out`. Appends core.* metrics.
 */
void replayCore(const mant::LoadedModel &model, int64_t ctx,
                uint64_t seed, Tracer &tracer, Metrics &out);

/** Percentile by linear interpolation between order statistics;
 *  0 for an empty sample. */
double percentile(std::vector<double> v, double p);

/** Lookup in an ordered metric list; throws when absent. */
double metric(const Metrics &m, const std::string &name);

} // namespace mantbench

#endif // MANT_BENCHMARK_BENCH_H_
