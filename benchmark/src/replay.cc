#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "core/fused_attention.h"
#include "core/packed_tiles.h"
#include "core/variance_selector.h"
#include "model/kv_cache.h"
#include "model/layers.h"
#include "tensor/rng.h"

namespace mantbench {

namespace {

constexpr int kSamples = 9;

// Replay shapes follow the traced workloads (serve.batch_width_mean and
// the prefill chunk sizes in benchmark/config.json): decode runs one
// row on single_stream, 1 to 2 on chat, about 4 on rag and about 9 on
// batch_pressure; prompts arrive in chunks of 32 (chat,
// batch_pressure) and 128 (rag).
constexpr int64_t kDecodeBatches[] = {1, 2, 4, 8};
constexpr int64_t kGemmRows[] = {1, 8, 32, 128};

/** Keep the compiler from dropping writes into `p`. */
void
clobber(void *p)
{
    asm volatile("" : : "r"(p) : "memory");
}

/**
 * Median per-call time of `fn` in µs. Calls per sample double until a
 * sample lasts at least 2 ms, so short kernels are not timed at the
 * clock's resolution; each sample becomes a span under `parent`.
 */
template <class F>
double
medianCallUs(const std::string &name, Tracer &tracer, int64_t parent,
             F &&fn)
{
    fn();
    int64_t calls = 1;
    while (calls < (int64_t{1} << 20)) {
        const Clock::time_point t0 = Clock::now();
        for (int64_t c = 0; c < calls; ++c)
            fn();
        if (secondsBetween(t0, Clock::now()) >= 2e-3)
            break;
        calls *= 2;
    }
    std::vector<double> us;
    for (int s = 0; s < kSamples; ++s) {
        const Clock::time_point t0 = Clock::now();
        for (int64_t c = 0; c < calls; ++c)
            fn();
        const Clock::time_point t1 = Clock::now();
        tracer.add(name, t0, t1, parent);
        us.push_back(secondsBetween(t0, t1) * 1e6 /
                     static_cast<double>(calls));
    }
    return percentile(us, 50);
}

std::vector<int32_t>
randomTokens(mant::Rng &rng, int64_t n, int64_t vocab)
{
    std::vector<int32_t> t(static_cast<size_t>(n));
    for (int32_t &x : t)
        x = static_cast<int32_t>(
            rng.uniformInt(static_cast<uint64_t>(vocab)));
    return t;
}

mant::Tensor
randomTensor(mant::Rng &rng, int64_t rows, int64_t cols)
{
    mant::Tensor t(mant::Shape{rows, cols});
    for (int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.gaussian());
    return t;
}

} // namespace

void
replayModel(mant::Transformer &model, int64_t ctx, uint64_t seed,
            Tracer &tracer, Metrics &out)
{
    const int64_t vocab = model.weights().profile.simDims.vocab;
    mant::Rng rng(seed ^ 0x6d6f64656cull);
    const int64_t root = tracer.begin("replay.model");

    // Streams at the workload's median context. Decode batches of M
    // take the first M; each timed call moves its streams on by one
    // position, a few percent of the context. The prefill samples get
    // streams of their own, so they start at exactly that context.
    constexpr int64_t kMaxBatch = 8;
    constexpr int kPrefillSamples = 5;
    std::vector<std::unique_ptr<mant::StreamContext>> owned;
    std::vector<mant::StreamContext *> streams;
    for (int64_t s = 0; s < kMaxBatch + 2 * kPrefillSamples; ++s) {
        owned.push_back(std::make_unique<mant::StreamContext>());
        model.initStream(*owned.back());
        model.prefillChunk(*owned.back(), randomTokens(rng, ctx, vocab));
        streams.push_back(owned.back().get());
    }
    for (const int64_t m : kDecodeBatches) {
        const std::vector<int32_t> tokens = randomTokens(rng, m, vocab);
        const std::span<mant::StreamContext *const> batch(
            streams.data(), static_cast<size_t>(m));
        const std::string name =
            "model.decode_batch_ms.M" + std::to_string(m);
        model.decodeBatch(tokens, batch);
        std::vector<double> msv;
        for (int r = 0; r < kSamples; ++r) {
            const Clock::time_point t0 = Clock::now();
            model.decodeBatch(tokens, batch);
            const Clock::time_point t1 = Clock::now();
            tracer.add(name, t0, t1, root);
            msv.push_back(secondsBetween(t0, t1) * 1e3);
        }
        out.emplace_back(name, percentile(msv, 50));
    }

    // Prefill: one chunk of T tokens per stream.
    int64_t next = kMaxBatch;
    for (const int64_t t : {32, 128}) {
        const std::vector<int32_t> chunk = randomTokens(rng, t, vocab);
        const std::string name =
            "model.prefill_chunk_ms.T" + std::to_string(t);
        std::vector<double> msv;
        for (int r = 0; r < kPrefillSamples; ++r) {
            mant::StreamContext &s = *owned[static_cast<size_t>(next++)];
            const Clock::time_point t0 = Clock::now();
            model.prefillChunk(s, chunk);
            const Clock::time_point t1 = Clock::now();
            tracer.add(name, t0, t1, root);
            msv.push_back(secondsBetween(t0, t1) * 1e3);
        }
        out.emplace_back(name, percentile(msv, 50));
    }
    tracer.end(root);
}

void
replayCore(const mant::LoadedModel &model, int64_t ctx, uint64_t seed,
           Tracer &tracer, Metrics &out)
{
    const mant::ArchDims &d = model.weights().profile.simDims;
    const int64_t group = model.setup().weightGroup;
    const int64_t kvGroup = model.setup().kvGroup;
    const int64_t dh = d.headDim();
    const mant::LayerTileViews &w = model.tileViews()[0];
    mant::Rng rng(seed ^ 0x636f7265ull);
    const int64_t root = tracer.begin("replay.core");

    // Linears of one layer at M rows. Per layer a decode step encodes
    // dModel-wide activations three times (attention in, attention
    // out, FFN in) and dFfn-wide ones once (FFN mid), and runs q/k/v,
    // o, gate/up and down.
    std::map<int64_t, double> linearUs; // per decode row count M
    double gemmUsM1 = 0.0;
    for (const int64_t m : kGemmRows) {
        const std::string sfx = ".M" + std::to_string(m);
        const mant::Tensor x = randomTensor(rng, m, d.dModel);
        const mant::Tensor xFfn = randomTensor(rng, m, d.dFfn);
        mant::Int8QuantizedActivations a, aFfn;
        mant::Tensor yq, yo, yg, yd;
        const double enc = medianCallUs("core.act_encode" + sfx, tracer,
                                        root,
                                        [&] { a.assign(x, group); });
        const double encFfn =
            medianCallUs("core.act_encode_ffn" + sfx, tracer, root,
                         [&] { aFfn.assign(xFfn, group); });
        const auto gemm = [&](const char *op,
                              const mant::Int8QuantizedActivations &in,
                              const mant::MantTilesView &v,
                              mant::Tensor &y) {
            const std::string name =
                std::string("core.gemm_us.") + op + sfx;
            const double us = medianCallUs(name, tracer, root, [&] {
                mant::fusedGemmTiledInto(in, v, y);
            });
            out.emplace_back(name, us);
            return us;
        };
        out.emplace_back("core.act_encode_us" + sfx, enc);
        const double gq = gemm("q", a, w.wq, yq);
        const double go = gemm("o", a, w.wo, yo);
        const double gg = gemm("gate", a, w.wGate, yg);
        const double gd = gemm("down", aFfn, w.wDown, yd);
        const double gemms = 3 * gq + go + 2 * gg + gd;
        if (m == 1)
            gemmUsM1 = gemms;
        linearUs[m] = 3 * enc + encFfn + gemms;
    }

    // Weight streaming at M = 1 against a plain copy of as many bytes.
    const int64_t layerBytes =
        w.wq.storageBytes() + w.wk.storageBytes() + w.wv.storageBytes() +
        w.wo.storageBytes() + w.wGate.storageBytes() +
        w.wUp.storageBytes() + w.wDown.storageBytes();
    const double gemmGBps =
        static_cast<double>(layerBytes) / (gemmUsM1 * 1e3);
    const size_t copyBytes =
        static_cast<size_t>(layerBytes) * static_cast<size_t>(d.nLayers);
    std::vector<uint8_t> src(copyBytes, 1), dst(copyBytes);
    const double copyUs =
        medianCallUs("core.stream_copy", tracer, root, [&] {
            std::memcpy(dst.data(), src.data(), copyBytes);
            clobber(dst.data());
        });
    const double copyGBps = static_cast<double>(copyBytes) / (copyUs * 1e3);
    out.emplace_back("core.gemm_weight_GBps.M1", gemmGBps);
    out.emplace_back("core.stream_copy_GBps", copyGBps);
    out.emplace_back("core.gemm_frac_of_copy.M1", gemmGBps / copyGBps);

    // Attention on one head's cache: fused QK^T and P·V at L cached
    // positions (L = ctx feeds the decode-step budget below), and the
    // per-row cost of appending K and V.
    const mant::VarianceSelector selector =
        mant::VarianceSelector::analytic();
    const mant::SimdOps &ops = mant::simdOps();
    const float invSqrtDh = 1.0f / std::sqrt(static_cast<float>(dh));
    double attnCtxUs = 0.0;
    const int64_t lens[3] = {128, 512, ctx};
    for (int i = 0; i < 3; ++i) {
        const int64_t len = lens[i];
        const mant::Tensor k = randomTensor(rng, len, dh);
        const mant::Tensor v = randomTensor(rng, len, dh);
        mant::HeadKvCache cache(mant::KvMethod::Mant4, dh, kvGroup,
                                &selector, /*captureCodes=*/true);
        for (int64_t r = 0; r < len; ++r) {
            cache.appendK(k.row(r));
            cache.appendV(v.row(r));
        }
        const mant::Tensor q = randomTensor(rng, 1, dh);
        mant::AttnScratch scratch;
        mant::quantizeQRow(ops, q.row(0), kvGroup, scratch);
        std::vector<float> scores(static_cast<size_t>(len));
        std::vector<float> o(static_cast<size_t>(dh));
        const std::string sfx = ".L" + std::to_string(len);
        const double sUs =
            medianCallUs("core.attn_scores" + sfx, tracer, root, [&] {
                mant::attnScoresFused(ops, cache.kPanels(),
                                      scratch.qCodes, scratch.qScales,
                                      len, invSqrtDh, 0.0f, scores);
            });
        std::vector<float> probs = scores;
        mant::softmaxRow(probs);
        const double pUs =
            medianCallUs("core.attn_pv" + sfx, tracer, root, [&] {
                mant::attnPvFused(ops, cache.vQuant(), probs, scratch, o);
            });
        if (i == 2) {
            attnCtxUs = sUs + pUs;
        } else {
            out.emplace_back("core.attn_scores_us" + sfx, sUs);
            out.emplace_back("core.attn_pv_us" + sfx, pUs);
        }
    }

    constexpr int64_t kAppendRows = 512;
    const mant::Tensor kRows = randomTensor(rng, kAppendRows, dh);
    const mant::Tensor vRows = randomTensor(rng, kAppendRows, dh);
    std::vector<double> appendUs;
    for (int s = 0; s < kSamples; ++s) {
        mant::HeadKvCache cache(mant::KvMethod::Mant4, dh, kvGroup,
                                &selector, /*captureCodes=*/true);
        const Clock::time_point t0 = Clock::now();
        for (int64_t r = 0; r < kAppendRows; ++r) {
            cache.appendK(kRows.row(r));
            cache.appendV(vRows.row(r));
        }
        const Clock::time_point t1 = Clock::now();
        tracer.add("core.kv_append", t0, t1, root);
        appendUs.push_back(secondsBetween(t0, t1) * 1e6 /
                           static_cast<double>(kAppendRows));
    }
    const double appendRowUs = percentile(appendUs, 50);
    out.emplace_back("core.kv_append_us", appendRowUs);

    // Share of a decode step outside the timed ops: norms, RoPE,
    // softmax, Q quantization, embedding, logits and glue.
    for (const int64_t m : {1, 8}) {
        const double coreUs =
            static_cast<double>(d.nLayers) *
            (linearUs.at(m) +
             static_cast<double>(m * d.nHeads) * (attnCtxUs + appendRowUs));
        const std::string sfx = ".M" + std::to_string(m);
        out.emplace_back("core.unattributed_frac" + sfx,
                         1.0 - coreUs / 1e3 /
                                   metric(out, "model.decode_batch_ms" + sfx));
    }
    tracer.end(root);
}

} // namespace mantbench
