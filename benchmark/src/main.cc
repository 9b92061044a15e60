/**
 * @file
 * One workload run of the serving benchmark. benchmark/run.py builds
 * this binary, passes each field of the workload's entry in
 * benchmark/config.json as a flag of the same name, and turns the
 * single JSON line it prints into the report; run it directly only to
 * debug.
 *
 * Usage: mant_serving_bench --workload NAME --loop open|closed|offline
 *   --requests-per-s R [--clients C] --prompt LO:HI --output LO:HI
 *   --slots S [--chunk T] [--pool-frac F]
 *   [--ttft-limit-ms X --itl-limit-ms Y]
 *   --seconds S --seed N --trace 0|1 --out-prefix PATH
 *   --setup-reps K --warmup W --oracle O
 *
 * --clients is given for a closed loop only. The run sends
 * max(O, round(R × S)) requests; PATH.model is the model file (removed
 * once loaded) and PATH.spans.jsonl the span file of a traced run.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "bench.h"
#include "core/parallel.h"
#include "core/simd.h"

namespace mantbench {

namespace {

/** Minimal one-line JSON object writer. */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        std::ostringstream s;
        s.precision(17);
        s << v;
        return raw(k, std::isfinite(v) ? s.str() : "null");
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        std::string e = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                e += '\\';
            e += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
        }
        return raw(k, e + "\"");
    }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
        return *this;
    }
    Json &
    metrics(const std::string &k, const Metrics &m)
    {
        Json o;
        for (const auto &[name, v] : m)
            o.num(name, v);
        return raw(k, o.text());
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** "--key value" pairs; every key must be read before finish(). */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string k = argv[i];
            if (k.rfind("--", 0) != 0)
                throw std::invalid_argument("expected --key, got " + k);
            kv_[k.substr(2)] = argv[i + 1];
        }
        if (argc % 2 == 0)
            throw std::invalid_argument("odd argument list");
    }
    bool has(const std::string &k) const { return kv_.count(k) != 0; }
    std::string
    get(const std::string &k)
    {
        const auto it = kv_.find(k);
        if (it == kv_.end())
            throw std::invalid_argument("missing --" + k);
        used_.insert(k);
        return it->second;
    }
    int64_t integer(const std::string &k) { return std::stoll(get(k)); }
    double real(const std::string &k) { return std::stod(get(k)); }
    double
    real(const std::string &k, double fallback)
    {
        return has(k) ? real(k) : fallback;
    }
    std::pair<int64_t, int64_t>
    range(const std::string &k)
    {
        const std::string v = get(k);
        const size_t colon = v.find(':');
        if (colon == std::string::npos)
            throw std::invalid_argument("--" + k + " wants LO:HI");
        return {std::stoll(v.substr(0, colon)),
                std::stoll(v.substr(colon + 1))};
    }
    /** Throws on a flag nothing read, so a misspelt one cannot pass
     *  unnoticed. */
    void
    finish() const
    {
        for (const auto &kv : kv_)
            if (!used_.count(kv.first))
                throw std::invalid_argument("unknown --" + kv.first);
    }

  private:
    std::map<std::string, std::string> kv_;
    std::set<std::string> used_;
};

WorkloadSpec
parseSpec(Args &a, int64_t minRequests)
{
    WorkloadSpec s;
    s.name = a.get("workload");
    const std::string loop = a.get("loop");
    if (loop == "open")
        s.loop = Loop::Open;
    else if (loop == "closed")
        s.loop = Loop::Closed;
    else if (loop == "offline")
        s.loop = Loop::Offline;
    else
        throw std::invalid_argument("--loop must be open|closed|offline");
    s.requestsPerS = a.real("requests-per-s");
    if (s.loop == Loop::Closed)
        s.clients = a.integer("clients");
    else if (a.has("clients"))
        throw std::invalid_argument("--clients is for a closed loop only");
    std::tie(s.promptMin, s.promptMax) = a.range("prompt");
    std::tie(s.outMin, s.outMax) = a.range("output");
    s.slots = a.integer("slots");
    s.chunk = a.has("chunk") ? a.integer("chunk") : 0;
    s.poolFrac = a.real("pool-frac", 0.0);
    s.ttftLimitMs = a.real("ttft-limit-ms", 0.0);
    s.itlLimitMs = a.real("itl-limit-ms", 0.0);
    s.requests = std::max<int64_t>(
        minRequests, std::llround(s.requestsPerS * a.real("seconds")));
    if (s.requestsPerS <= 0.0 || s.promptMin < 1 ||
        s.promptMax < s.promptMin || s.outMin < 1 || s.outMax < s.outMin ||
        s.slots < 1 || s.clients < 1 || s.chunk < 0 || s.poolFrac < 0.0 ||
        (s.ttftLimitMs > 0.0) != (s.itlLimitMs > 0.0) ||
        s.promptMax + s.outMax > kMaxSeq)
        throw std::invalid_argument("workload parameters out of range");
    return s;
}

/** Serial-oracle check of `count` requests spread over the run. */
int64_t
oracleMismatches(mant::Transformer &model,
                 const std::vector<Request> &traffic,
                 const PhaseResult &p, int64_t count)
{
    int64_t bad = 0;
    const auto n = static_cast<int64_t>(traffic.size());
    for (int64_t k = 0; k < count; ++k) {
        const auto i = static_cast<size_t>(k * n / count);
        bad += serialOracle(model, traffic[i].prompt, traffic[i].maxNew) !=
               p.outputs[i];
    }
    return bad;
}

int
run(Args &a)
{
    const int64_t oracleCount = a.integer("oracle");
    const WorkloadSpec spec = parseSpec(a, oracleCount);
    const auto seed = static_cast<uint64_t>(a.integer("seed"));
    const bool trace = a.integer("trace") != 0;
    const std::string outPrefix = a.get("out-prefix");
    const int setupReps = static_cast<int>(a.integer("setup-reps"));
    const int64_t warmup = a.integer("warmup");
    a.finish();
    if (setupReps < 1 || warmup < 0 || oracleCount < 1)
        throw std::invalid_argument("run parameters out of range");

    // Set-up first: the child must fork before this process starts
    // the kernel thread pool.
    const mant::ServingConfig cfg = engineConfig(spec);
    const std::string modelPath = outPrefix + ".model";
    const SetupTimes setup = timeSetupInChild(modelPath, setupReps, cfg);
    std::shared_ptr<mant::LoadedModel> model;
    try {
        model = mant::LoadedModel::load(modelPath);
    } catch (...) {
        std::remove(modelPath.c_str());
        throw;
    }
    std::remove(modelPath.c_str()); // the mapping outlives the name
    mant::ServingEngine engine(model, cfg);
    const int64_t vocab = model->weights().profile.simDims.vocab;

    // Warm-up: settles the thread pool, the engine's stream slots and
    // the kernels' scratch before anything is timed.
    for (Request &r : makeTraffic(spec, ~seed, warmup, vocab))
        engine.submit({.prompt = std::move(r.prompt),
                       .maxNewTokens = std::min<int64_t>(r.maxNew, 16)});
    engine.run();

    const std::vector<Request> traffic = makeTraffic(
        spec, seed,
        trace ? std::max(oracleCount, spec.requests / 2) : spec.requests,
        vocab);
    Json out;
    Metrics layer;
    PhaseResult p = runPhase(engine, spec, traffic, nullptr);
    bool phasesAgree = true;
    if (trace && p.engineError.empty()) {
        // Traced phase on the same requests: outputs must repeat, and
        // the throughput difference is the cost of tracing.
        Tracer tracer;
        PhaseResult traced = runPhase(engine, spec, traffic, &tracer);
        phasesAgree = traced.outputs == p.outputs;
        const double plainTps = static_cast<double>(p.generated) / p.wallS;
        layer = std::move(traced.layer);
        const int64_t ctx = medianContext(traffic);
        replayModel(model->transformer(), ctx, seed, tracer, layer);
        replayCore(*model, ctx, seed, tracer, layer);
        layer.emplace_back("model_file.export_s",
                           percentile(setup.exportS, 50));
        layer.emplace_back("model_file.load_ms",
                           percentile(setup.loadS, 50) * 1e3);
        layer.emplace_back("quant.encode_ns_per_weight",
                           percentile(setup.exportS, 50) * 1e9 /
                               static_cast<double>(linearWeights()));
        layer.emplace_back("trace.overhead_tokens_per_s",
                           static_cast<double>(traced.generated) /
                                   traced.wallS -
                               plainTps);
        const std::string spans = outPrefix + ".spans.jsonl";
        tracer.writeJsonl(spans);
        out.str("spans", spans).num("median_context",
                                    static_cast<double>(ctx));
        if (!traced.engineError.empty())
            p = std::move(traced);
    }
    const int64_t mismatches =
        p.engineError.empty()
            ? oracleMismatches(model->transformer(), traffic, p,
                               oracleCount)
            : 0;

    const auto attempted = static_cast<double>(p.attempted);
    Metrics e2e = {
        {"setup_s", percentile(setup.total, 50)},
        {"tokens_per_s", static_cast<double>(p.generated) / p.wallS},
        {"ttft_p50_ms", percentile(p.ttftMs, 50)},
        {"ttft_p90_ms", percentile(p.ttftMs, 90)},
        {"itl_p50_ms", percentile(p.itlMs, 50)},
        {"itl_p99_ms", percentile(p.itlMs, 99)},
        {"failed_frac", static_cast<double>(p.attempted - p.done) /
                            attempted},
        {"peak_rss_mb", peakRssMb()},
    };
    if (spec.ttftLimitMs > 0.0)
        e2e.emplace_back("slo_met_frac",
                         static_cast<double>(p.sloMet) / attempted);

    char checksum[17];
    std::snprintf(checksum, sizeof(checksum), "%016" PRIx64,
                  fnv1a(p.outputs));
    Json counts, samples, late;
    counts.num("attempted", attempted)
        .num("done", static_cast<double>(p.done))
        .num("failed", static_cast<double>(p.failed))
        .num("expired", static_cast<double>(p.expired))
        .num("cancelled", static_cast<double>(p.cancelled))
        .num("generated", static_cast<double>(p.generated));
    samples.num("ttft", static_cast<double>(p.ttftMs.size()))
        .num("itl", static_cast<double>(p.itlMs.size()))
        .num("setup", static_cast<double>(setup.total.size()));
    std::ostringstream setupRuns;
    setupRuns.precision(17);
    for (size_t i = 0; i < setup.total.size(); ++i)
        setupRuns << (i ? "," : "[") << setup.total[i];
    setupRuns << "]";
    late.num("p50", percentile(p.lateMs, 50))
        .num("max", p.lateMs.empty()
                        ? 0.0
                        : *std::max_element(p.lateMs.begin(),
                                            p.lateMs.end()));
    out.str("workload", spec.name)
        .num("seed", static_cast<double>(seed))
        .num("trace", trace ? 1 : 0)
        .num("requests", static_cast<double>(traffic.size()))
        .str("simd", mant::simdPathName(mant::activeSimdPath()))
        .num("threads", mant::maxThreads())
        .str("build_type", MANT_BENCH_BUILD_TYPE)
        .str("compiler", MANT_BENCH_COMPILER)
        .str("checksum", checksum)
        .num("oracle_checked", static_cast<double>(oracleCount))
        .num("oracle_mismatches", static_cast<double>(mismatches))
        .raw("phases_agree", phasesAgree ? "true" : "false")
        .str("engine_error", p.engineError)
        .raw("counts", counts.text())
        .raw("samples", samples.text())
        .raw("generator_late_ms", late.text())
        .raw("setup_runs_s", setupRuns.str())
        .metrics("e2e", e2e);
    if (trace)
        out.metrics("layer", layer);
    std::printf("%s\n", out.text().c_str());

    const bool ok = p.engineError.empty() && mismatches == 0 &&
                    phasesAgree && p.done == p.attempted;
    return ok ? 0 : 1;
}

} // namespace

} // namespace mantbench

int
main(int argc, char **argv)
{
    try {
        mantbench::Args args(argc, argv);
        return mantbench::run(args);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "mant_serving_bench: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mant_serving_bench: %s\n", e.what());
        return 3;
    }
}
