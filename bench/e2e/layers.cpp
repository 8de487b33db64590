/**
 * @file
 * crisp_layers: the per-layer half of the end-to-end benchmark
 * (bench/e2e/README.md). Replays one crisp_sim invocation serially,
 * calling each module's public entry point directly and wrapping the
 * call in a RuntimeTracer span of category "bench", then writes the
 * span trace (Chrome trace-event JSON). The library's own spans
 * (pool.*, sampled.*, warmstore.*) land in the same trace, nested
 * inside the benchmark's.
 *
 *   crisp_layers --out TRACE.json <crisp_sim arguments>
 *
 * Stdout carries the analysis and result lines in crisp_sim's format.
 * run.py checks them against crisp_sim's golden lines, which proves
 * the replay simulated the same thing.
 *
 * Span names are the layer names run.py reports:
 *   vm.trace            buildWorkloadTrace (arg: ops built)
 *   core.analyze        analyzeTrace
 *   core.tag_trace      buildTaggedRefTrace
 *   cpu.sim.<variant>   runCore (full detail)
 *   sim.sampled.warm    buildWarmState
 *   sim.sampled.detail  runCoreSampled with a prebuilt warm state
 *   sim.warmstore.hash  traceContentHash
 *   sim.warmstore.read  WarmArtifactStore::load (arg: bytes, 0 = miss)
 * and, under one top-level "probe" span that is not part of the
 * replay and runs after it:
 *   core.profile        profileTrace
 *   core.producers      SliceExtractor construction
 *   core.slice          extractLoadSlices/extractBranchSlices (arg:
 *                       slice roots)
 *   sim.warmstore.write WarmArtifactStore::save of each loaded state
 *                       into a scratch store
 */

#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "sim/cli.h"
#include "sim/driver.h"
#include "sim/sampled.h"
#include "sim/warm_store.h"
#include "telemetry/runtime_trace.h"
#include "workloads/workload.h"

using namespace crisp;

namespace
{

constexpr const char *kCat = "bench";

/** buildWorkloadTrace under a vm.trace span. */
Trace
traceSpan(const WorkloadInfo &wl, InputSet input, uint64_t ops)
{
    TraceSpan span(kCat, "vm.trace");
    Trace t = buildWorkloadTrace(wl, input, ops);
    span.setArg("ops", uint64_t(t.size()));
    return t;
}

/** Same format as crisp_sim's per-variant result line. */
void
report(const char *label, const CoreStats &s)
{
    std::printf("%-6s IPC %.3f | cycles %9llu | LLC MPKI %6.2f | "
                "mispredicts %7llu | ROB-head stall %9llu\n",
                label, s.ipc(), static_cast<unsigned long long>(s.cycles),
                s.llcMpki(),
                static_cast<unsigned long long>(s.frontend.mispredicts()),
                static_cast<unsigned long long>(s.robHeadStallCycles));
}

/** A loaded warm artifact, kept for the write probe. */
struct Loaded
{
    std::string key;
    uint64_t traceHash;
    std::shared_ptr<const SampledWarmState> warm;
};

void
replay(const CliOptions &opt, const WorkloadInfo &wl,
       const std::string &probe_dir)
{
    const Trace train = traceSpan(wl, InputSet::Train, opt.trainOps);
    CrispAnalysis a;
    {
        TraceSpan span(kCat, "core.analyze");
        a = analyzeTrace(train, opt.analysis, opt.machine);
    }
    std::printf("analysis: %zu delinquent loads, %zu branches, %zu"
                " long-latency ops; %zu tagged statics "
                "(dyn ratio %.2f)\n\n",
                a.delinquentLoads.size(), a.criticalBranches.size(),
                a.longLatencyOps.size(), a.taggedStatics.size(),
                a.dynamicCriticalRatio);

    // Variant list and order as in crisp_sim.
    const bool run_ooo = opt.scheduler == "ooo" ||
                         opt.scheduler == "both" ||
                         opt.scheduler == "ibda";
    const bool run_ibda =
        opt.scheduler == "ibda" || opt.scheduler == "both";
    const bool run_crisp =
        opt.scheduler == "crisp" || opt.scheduler == "both";
    struct Variant
    {
        const char *label;
        const char *simSpan;
        SimConfig cfg;
        bool tagged;
        CoreStats stats;
    };
    std::vector<Variant> runs;
    if (run_ooo)
        runs.push_back(
            {"ooo", "cpu.sim.ooo", baselineConfig(opt.machine), false,
             {}});
    if (run_ibda)
        runs.push_back({"ibda", "cpu.sim.ibda",
                        ibdaConfig(opt.machine, opt.ist), false, {}});
    if (run_crisp)
        runs.push_back({"crisp", "cpu.sim.crisp",
                        crispConfig(opt.machine), true, {}});

    const bool sampled = opt.machine.sampleOps > 0;
    std::unique_ptr<WarmArtifactStore> store;
    if (!opt.artifactDir.empty())
        store = std::make_unique<WarmArtifactStore>(
            opt.artifactDir, opt.artifactMaxBytes);

    std::optional<Trace> ref, tagged;
    // Without a store, crisp_sim builds a warm state once per key and
    // shares it between variants; so does the replay.
    std::map<std::string, std::shared_ptr<const SampledWarmState>>
        shared_warm;
    std::vector<Loaded> loaded;
    size_t intervals = 0;
    for (Variant &v : runs) {
        if (v.tagged && !tagged) {
            TraceSpan span(kCat, "core.tag_trace");
            tagged = buildTaggedRefTrace(wl, a.taggedStatics,
                                         opt.refOps);
        } else if (!v.tagged && !ref) {
            ref = traceSpan(wl, InputSet::Ref, opt.refOps);
        }
        const Trace &trace = v.tagged ? *tagged : *ref;
        if (!sampled) {
            TraceSpan span(kCat, v.simSpan);
            v.stats = runCore(trace, v.cfg);
            continue;
        }

        const std::string wkey = warmStateKey(v.cfg);
        const std::string skey =
            (v.tagged ? "tagged:" : "ref:") + wkey;
        std::shared_ptr<const SampledWarmState> warm;
        if (store) {
            uint64_t hash = 0;
            {
                TraceSpan span(kCat, "sim.warmstore.hash");
                hash = traceContentHash(trace);
            }
            auto state = std::make_shared<SampledWarmState>();
            TraceSpan span(kCat, "sim.warmstore.read");
            if (store->load(wkey, hash, v.cfg, *state)) {
                span.setArg("bytes",
                            uint64_t(std::filesystem::file_size(
                                store->pathFor(wkey, hash))));
                warm = state;
                loaded.push_back({wkey, hash, warm});
            } else {
                span.setArg("bytes", uint64_t(0));
            }
        } else if (auto it = shared_warm.find(skey);
                   it != shared_warm.end()) {
            warm = it->second;
        }
        if (!warm) {
            TraceSpan span(kCat, "sim.sampled.warm");
            warm = std::make_shared<const SampledWarmState>(
                buildWarmState(trace, v.cfg));
            if (!store)
                shared_warm[skey] = warm;
        }
        SampledResult r;
        {
            TraceSpan span(kCat, "sim.sampled.detail");
            r = runCoreSampled(trace, v.cfg, warm.get());
        }
        v.stats = std::move(r.total);
        intervals = r.intervals.size();
    }
    if (sampled)
        std::printf("sampled : %zu intervals of %llu ops "
                    "(warmup %llu)\n\n",
                    intervals,
                    static_cast<unsigned long long>(
                        opt.machine.sampleOps),
                    static_cast<unsigned long long>(
                        opt.machine.sampleWarmupOps));

    double base_ipc = 0;
    for (const Variant &v : runs) {
        report(v.label, v.stats);
        if (std::string(v.label) == "ooo")
            base_ipc = v.stats.ipc();
        else if (base_ipc > 0 && run_ooo)
            std::printf("       %s speedup %+.1f%%\n", v.label,
                        (v.stats.ipc() / base_ipc - 1.0) * 100.0);
    }

    // Probes: the analysis sub-stages and the warm-store write path,
    // timed on the replay's own inputs after the replay is done.
    TraceSpan probe(kCat, "probe");
    ProfileResult prof;
    {
        TraceSpan span(kCat, "core.profile");
        prof = profileTrace(train, opt.machine);
    }
    std::optional<SliceExtractor> extractor;
    {
        TraceSpan span(kCat, "core.producers");
        extractor.emplace(train, opt.analysis, &prof, &opt.machine);
    }
    {
        TraceSpan span(kCat, "core.slice");
        size_t roots = extractLoadSlices(*extractor, a.delinquentLoads)
                           .size() +
                       extractBranchSlices(*extractor,
                                           a.criticalBranches)
                           .size() +
                       extractLoadSlices(*extractor, a.longLatencyOps)
                           .size();
        span.setArg("roots", uint64_t(roots));
    }
    if (!loaded.empty()) {
        WarmArtifactStore scratch(probe_dir);
        for (const Loaded &l : loaded) {
            TraceSpan span(kCat, "sim.warmstore.write");
            if (!scratch.save(l.key, l.traceHash, *l.warm))
                throw std::runtime_error("cannot write warm artifact "
                                         "under " + probe_dir);
        }
        std::filesystem::remove_all(probe_dir);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() < 2 || args[0] != "--out") {
        std::fprintf(stderr, "usage: crisp_layers --out TRACE.json "
                             "<crisp_sim arguments>\n");
        return 2;
    }
    const std::string out = args[1];
    args.erase(args.begin(), args.begin() + 2);
    CliOptions opt = parseCli(args);
    if (!opt.ok()) {
        std::fprintf(stderr, "crisp_layers: %s\n", opt.error.c_str());
        return 2;
    }
    const WorkloadInfo *wl = findWorkload(opt.workload);
    if (!wl) {
        std::fprintf(stderr, "crisp_layers: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    RuntimeTracer tracer;
    tracer.activate();
    try {
        replay(opt, *wl, out + ".probe");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "crisp_layers: %s\n", e.what());
        return 1;
    }
    tracer.deactivate();
    std::string err;
    if (!tracer.writeJson(out, &err)) {
        std::fprintf(stderr, "crisp_layers: %s\n", err.c_str());
        return 1;
    }
    if (tracer.dropped()) {
        std::fprintf(stderr, "crisp_layers: trace dropped events\n");
        return 1;
    }
    return 0;
}
