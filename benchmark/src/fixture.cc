#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "core/kv_panels.h"
#include "model/model_profiles.h"
#include "model/quant_setup.h"
#include "tensor/rng.h"

namespace mantbench {

namespace {

/**
 * `count` quantile positions frac(start + i * step) of a Kronecker
 * sequence with an irrational step: evenly spread over [0, 1) at every
 * scale, so any run of consecutive requests mixes short and long ones
 * in the same proportions. The seed picks `start`.
 */
std::vector<double>
kroneckerQuantiles(int64_t count, double step, mant::Rng &rng)
{
    std::vector<double> u(static_cast<size_t>(count));
    double x = rng.uniform();
    for (double &v : u) {
        v = x;
        x += step;
        x -= std::floor(x);
    }
    return u;
}

int64_t
uniformLength(double u, int64_t lo, int64_t hi)
{
    return std::min(hi, lo + static_cast<int64_t>(
                                 u * static_cast<double>(hi - lo + 1)));
}

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Pages one stream of `maxRows` positions can pin, from the same
 *  panel-block arithmetic the engine uses to size pages. */
int64_t
worstPagesPerStream(const mant::ArchDims &d, int64_t kvGroup,
                    int64_t maxRows)
{
    const int64_t kBlock =
        mant::KPanelStore::blockBytesFor(d.headDim(), kvGroup);
    const int64_t vBlock =
        mant::VPanelStore::blockBytesFor(d.headDim(), kvGroup);
    const int64_t pageBytes = std::max(kBlock, vBlock);
    const int64_t kBlocks = ceilDiv(maxRows, mant::kTilePanelCols);
    const int64_t vBlocks = ceilDiv(maxRows, kvGroup);
    return (ceilDiv(kBlocks, pageBytes / kBlock) +
            ceilDiv(vBlocks, pageBytes / vBlock)) *
           d.nLayers * d.nHeads;
}

bool
writeAll(int fd, const void *data, size_t n)
{
    const auto *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

} // namespace

std::vector<Request>
makeTraffic(const WorkloadSpec &spec, uint64_t seed, int64_t count,
            int64_t vocab)
{
    // Fractional parts of the golden ratio, sqrt(2) and sqrt(3): they
    // are rationally independent, so the three sequences are evenly
    // spread jointly, not just one at a time.
    mant::Rng rng(seed);
    const std::vector<double> promptU =
        kroneckerQuantiles(count, 0.6180339887498949, rng);
    const std::vector<double> outU =
        kroneckerQuantiles(count, 0.4142135623730951, rng);
    const std::vector<double> gapU =
        kroneckerQuantiles(count, 0.7320508075688772, rng);

    std::vector<Request> traffic(static_cast<size_t>(count));
    double due = 0.0;
    for (size_t i = 0; i < traffic.size(); ++i) {
        Request &r = traffic[i];
        r.prompt.resize(static_cast<size_t>(
            uniformLength(promptU[i], spec.promptMin, spec.promptMax)));
        for (int32_t &t : r.prompt)
            t = static_cast<int32_t>(
                rng.uniformInt(static_cast<uint64_t>(vocab)));
        r.maxNew = uniformLength(outU[i], spec.outMin, spec.outMax);
        if (spec.loop == Loop::Open) {
            r.dueS = due;
            due += -std::log(1.0 - gapU[i]) / spec.requestsPerS;
        }
    }
    return traffic;
}

int64_t
medianContext(const std::vector<Request> &traffic)
{
    std::vector<double> ctx;
    for (const Request &r : traffic)
        ctx.push_back(static_cast<double>(r.prompt.size()) +
                      static_cast<double>(r.maxNew) / 2.0);
    return static_cast<int64_t>(std::lround(percentile(ctx, 50.0)));
}

mant::ModelProfile
benchProfile()
{
    mant::ModelProfile p = mant::modelProfile("llama-2-7b");
    p.name = "bench-llama-2x512";
    p.simDims.nLayers = 2;
    p.simDims.dModel = 512;
    p.simDims.nHeads = 4;
    p.simDims.dFfn = 1408;
    p.simDims.vocab = 2048;
    return p;
}

mant::QuantSetup
benchSetup()
{
    return mant::mantFusedAttentionSetup(64);
}

mant::ServingConfig
engineConfig(const WorkloadSpec &spec)
{
    mant::ServingConfig cfg;
    cfg.maxStreams = spec.slots;
    cfg.prefillChunkTokens = spec.chunk;
    if (spec.poolFrac > 0.0) {
        const int64_t perStream =
            worstPagesPerStream(benchProfile().simDims,
                                benchSetup().kvGroup,
                                spec.promptMax + spec.outMax);
        cfg.pagePoolPages = std::max<int64_t>(
            perStream + 1,
            static_cast<int64_t>(spec.poolFrac *
                                 static_cast<double>(spec.slots *
                                                     perStream)));
    }
    return cfg;
}

int64_t
linearWeights()
{
    const mant::ArchDims &d = benchProfile().simDims;
    return d.nLayers * (4 * d.dModel * d.dModel + 3 * d.dModel * d.dFfn);
}

SetupTimes
timeSetupInChild(const std::string &modelPath, int reps,
                 const mant::ServingConfig &cfg)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("setup: pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("setup: fork() failed");
    }
    if (pid == 0) {
        ::close(fds[0]);
        int rc = 0;
        try {
            const mant::ModelWeights weights =
                mant::ModelWeights::generate(benchProfile(), kMaxSeq);
            for (int r = 0; r < reps && rc == 0; ++r) {
                const Clock::time_point t0 = Clock::now();
                mant::exportModelToFile(modelPath, weights, benchSetup());
                const Clock::time_point t1 = Clock::now();
                std::shared_ptr<mant::LoadedModel> model =
                    mant::LoadedModel::load(modelPath);
                const Clock::time_point t2 = Clock::now();
                {
                    const mant::ServingEngine engine(model, cfg);
                }
                const Clock::time_point t3 = Clock::now();
                const double times[3] = {secondsBetween(t0, t1),
                                         secondsBetween(t1, t2),
                                         secondsBetween(t2, t3)};
                if (!writeAll(fds[1], times, sizeof(times)))
                    rc = 1;
            }
        } catch (...) {
            rc = 1;
        }
        ::close(fds[1]);
        ::_exit(rc);
    }
    ::close(fds[1]);
    std::vector<double> raw;
    double buf[3];
    size_t have = 0;
    while (true) {
        const ssize_t n = ::read(fds[0],
                                 reinterpret_cast<char *>(buf) + have,
                                 sizeof(buf) - have);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        have += static_cast<size_t>(n);
        if (have == sizeof(buf)) {
            raw.insert(raw.end(), buf, buf + 3);
            have = 0;
        }
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        raw.size() != static_cast<size_t>(reps) * 3)
        throw std::runtime_error("setup: child process failed");

    SetupTimes t;
    for (size_t i = 0; i < raw.size(); i += 3) {
        t.exportS.push_back(raw[i]);
        t.loadS.push_back(raw[i + 1]);
        t.total.push_back(raw[i] + raw[i + 1] + raw[i + 2]);
    }
    return t;
}

std::vector<int32_t>
serialOracle(mant::Transformer &model, std::span<const int32_t> prompt,
             int64_t maxNew)
{
    const auto argmax = [](std::span<const float> row) {
        return static_cast<int32_t>(
            std::max_element(row.begin(), row.end()) - row.begin());
    };
    std::vector<int32_t> out;
    const mant::Tensor logits = model.prefill(prompt);
    out.push_back(argmax(logits.row(logits.shape().dim(0) - 1)));
    while (static_cast<int64_t>(out.size()) < maxNew)
        out.push_back(argmax(model.decodeStep(out.back())));
    return out;
}

uint64_t
fnv1a(const std::vector<std::vector<int32_t>> &outputs)
{
    uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const std::vector<int32_t> &o : outputs) {
        mix(o.size(), 8);
        for (const int32_t t : o)
            mix(static_cast<uint32_t>(t), 4);
    }
    return h;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string key;
    while (f >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            f >> kib;
            return kib / 1024.0;
        }
        f.ignore(4096, '\n');
    }
    return 0.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
metric(const Metrics &m, const std::string &name)
{
    for (const auto &[k, v] : m)
        if (k == name)
            return v;
    throw std::logic_error("metric not recorded: " + name);
}

} // namespace mantbench
