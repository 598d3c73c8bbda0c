/**
 * @file
 * Simulator benchmark driver.  Runs one named workload of the memscale
 * library as a batch of simulations, repeats it for a fixed host-time
 * budget, and writes every measurement (host times, simulated totals,
 * result hashes, spans) as one JSON document for run.py to check and
 * reduce.
 *
 * Untraced repetitions call the library's public entry points only
 * (compareCases / runBaselines / comparePolicyGrid / runBaseline /
 * ClusterHarness::run).  Traced repetitions mirror the same runs
 * through System::run with a forwarding Policy wrapper, keep
 * workload -> sweep task -> System::run -> policy-call spans in memory
 * and count DRAM commands with a CommandObserver; their result hashes
 * must equal the untraced ones.
 *
 *   simbench --workload closed_sweep|serve_rates|fleet_cap --seed N
 *            --seconds S --trace 0|1 [--size full|tiny] [--t0-ns NS]
 *            [--out FILE] [--scratch DIR] [--setup-only]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/command_observer.hh"
#include "check/protocol_checker.hh"
#include "common/rng.hh"
#include "harness/cluster.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "memscale/policies/policy.hh"
#include "workload/mixes.hh"
#include "workload/openloop.hh"
#include "workload/trace_source.hh"

using namespace memscale;
namespace fs = std::filesystem;

namespace
{

/** Sweep parallelism of every workload (half of a 4-thread box). */
constexpr unsigned Jobs = 2;

/** Per-workload simulation sizes. */
struct Sizes
{
    std::uint64_t budget;         ///< closed_sweep instructions/core
    double serveHorizonMs;        ///< serve_rates simulated horizon
    double fleetHorizonMs;        ///< fleet_cap simulated horizon
    std::uint32_t fleetServers;
};

constexpr Sizes FullSize{2'000'000, 4.0, 4.0, 16};
constexpr Sizes TinySize{100'000, 0.5, 0.3, 4};

constexpr double ServeRatesM[] = {2.0, 8.0, 16.0};
const std::vector<std::string> ServePolicies = {"memscale", "slo"};

// ------------------------------------------------------------------
// Host time and spans

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    int task = -1;   ///< sweep task id, inherited from the parent
};

/** In-memory span store shared by the sweep worker threads. */
class Tracer
{
  public:
    int
    open(const char *name, int parent, int task)
    {
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> g(mu_);
        if (task < 0 && parent >= 0)
            task = spans_[parent].task;
        spans_.push_back(Span{name, t, 0, parent, task});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> g(mu_);
        spans_[id].end = t;
    }

    std::vector<Span>
    take()
    {
        std::lock_guard<std::mutex> g(mu_);
        return std::move(spans_);
    }

  private:
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** Innermost open span on this thread (the default parent). */
thread_local int tlsSpan = -1;

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, int parent = tlsSpan,
               int task = -1)
        : t_(t), id_(t.open(name, parent, task)), saved_(tlsSpan)
    {
        tlsSpan = id_;
    }
    ~ScopedSpan()
    {
        t_.close(id_);
        tlsSpan = saved_;
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
    int saved_;
};

// ------------------------------------------------------------------
// Forwarding policy wrapper and DRAM command counter

constexpr const char *CmdNames[] = {"act",     "pre",      "read",
                                    "write",   "refresh",  "pd_enter",
                                    "pd_exit", "relock"};

class CommandCounter final : public CommandObserver
{
  public:
    void
    onCommand(const DramCmdEvent &ev) override
    {
        ++counts[static_cast<std::size_t>(ev.cmd)];
    }
    void onTimingChange(std::uint32_t, Tick, const TimingParams &) override
    {
    }

    std::array<std::uint64_t, std::size(CmdNames)> counts{};
};

/**
 * Forwards every Policy call to the wrapped policy, timing the epoch
 * calls as spans.  configure() also attaches the command counter
 * unless a protocol checker already owns the observer slot.
 */
class TracedPolicy final : public Policy
{
  public:
    TracedPolicy(std::unique_ptr<Policy> inner, Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    configure(MemoryController &mc, const PolicyContext &ctx) override
    {
        if (!ProtocolChecker::strictDefault())
            mc.setCommandObserver(&commands_);
        inner_->configure(mc, ctx);
    }

    bool dynamic() const override { return inner_->dynamic(); }

    FreqIndex
    selectFrequency(const ProfileData &profile, const PolicyContext &ctx,
                    FreqIndex current) override
    {
        ScopedSpan s(tracer_, "policy.select");
        const FreqIndex f = inner_->selectFrequency(profile, ctx, current);
        ++decisions_;
        freqChanges_ += f != current;
        return f;
    }

    void
    endEpoch(const ProfileData &epoch, const PolicyContext &ctx) override
    {
        ScopedSpan s(tracer_, "policy.end_epoch");
        inner_->endEpoch(epoch, ctx);
    }

    double selectedCpuGHz() const override
    {
        return inner_->selectedCpuGHz();
    }
    PolicyDecision lastDecision() const override
    {
        return inner_->lastDecision();
    }
    void
    registerStats(StatRegistry &reg, const std::string &prefix) override
    {
        inner_->registerStats(reg, prefix);
    }
    void
    attachTailProbe(std::function<TailWindow()> probe) override
    {
        inner_->attachTailProbe(std::move(probe));
    }
    void saveState(SectionWriter &w) const override { inner_->saveState(w); }
    void restoreState(SectionReader &r) override { inner_->restoreState(r); }

    std::uint64_t decisions() const { return decisions_; }
    std::uint64_t freqChanges() const { return freqChanges_; }
    const CommandCounter &commands() const { return commands_; }

  private:
    std::unique_ptr<Policy> inner_;
    Tracer &tracer_;
    CommandCounter commands_;
    std::uint64_t decisions_ = 0;
    std::uint64_t freqChanges_ = 0;
};

// ------------------------------------------------------------------
// One repetition's outputs

struct RunRecord
{
    std::string id;
    std::uint64_t hash = 0;
    std::string failure;   ///< empty when the run is sound
};

struct Batch
{
    bool traced = false;
    double wallS = 0.0;
    double userS = 0.0;
    double sysS = 0.0;
    std::string error;     ///< the batch threw
    std::vector<RunRecord> runs;
    std::map<std::string, double> values;
    std::vector<Span> spans;

    void add(const std::string &k, double v) { values[k] += v; }
    void
    max(const std::string &k, double v)
    {
        double &m = values[k];
        m = std::max(m, v);
    }
};

/** A simulation's hash and, if it is unsound, why. */
RunRecord
record(const std::string &id, const RunResult &r)
{
    RunRecord rec{id, hashRunResult(r), ""};
    if (r.hitTimeLimit)
        rec.failure = "hit the simulated time limit";
    else if (r.protocolViolations != 0)
        rec.failure = "protocol violation: " +
                      r.protocolViolationSamples.front();
    return rec;
}

/** Fold a simulation's simulated totals into a batch. */
void
addTotals(Batch &b, const RunResult &r, double instr, std::uint32_t channels)
{
    const McCounters &c = r.counters;
    b.add("instr", instr);
    b.add("mem.reads", static_cast<double>(c.reads));
    b.add("mem.writes", static_cast<double>(c.writes));
    b.add("mem.rbhc", static_cast<double>(c.rbhc));
    b.add("mem.row_misses", static_cast<double>(c.obmc + c.cbmc));
    b.add("mem.bus_busy_s", tickToSec(c.busBusyTime));
    b.add("mem.bus_capacity_s", tickToSec(r.runtime) * channels);
    b.add("mem.read_latency_s", tickToSec(c.readLatencyTotal));
    b.add("mem.relock_stall_s", tickToSec(c.relockStallTime));
    if (r.serving.valid) {
        b.add("serving.completed", static_cast<double>(r.serving.completed));
        b.max("serving.queue_peak", static_cast<double>(r.serving.queuePeak));
    }
}

void
account(Batch &b, const std::string &id, const RunResult &r, double instr,
        std::uint32_t channels)
{
    b.runs.push_back(record(id, r));
    addTotals(b, r, instr, channels);
}

/** Instructions a serving run retired, derived from its read count. */
double
servingInstr(const RunResult &r)
{
    return r.measuredRpki > 0.0
               ? 1000.0 * static_cast<double>(r.counters.reads) /
                     r.measuredRpki
               : 0.0;
}

/** Policy-layer tallies of a traced run. */
void
accountPolicy(Batch &b, const TracedPolicy &p, const RunResult &r)
{
    b.add("memscale.decisions", static_cast<double>(p.decisions()));
    b.add("memscale.freq_changes", static_cast<double>(p.freqChanges()));
    for (std::size_t k = 0; k < std::size(CmdNames); ++k)
        b.add(std::string("dram.cmd.") + CmdNames[k],
              static_cast<double>(p.commands().counts[k]));
    b.add("observed_reqs",
          static_cast<double>(r.counters.reads + r.counters.writes));
}

struct TracedRun
{
    RunResult result;
    std::unique_ptr<TracedPolicy> policy;
};

/** runPolicy() through the wrapper, inside a System::run span. */
TracedRun
tracedRun(const SystemConfig &cfg, const std::string &policy,
          Watts rest_watts, Tracer &tracer)
{
    SystemConfig pcfg = cfg;
    pcfg.restWatts = rest_watts;
    TracedRun out;
    out.policy = std::make_unique<TracedPolicy>(makePolicy(policy), tracer);
    System sys(pcfg, *out.policy);
    ScopedSpan s(tracer, "system.run");
    out.result = sys.run();
    return out;
}

/** runBaseline() through the wrapper (same rest-of-system calibration). */
TracedRun
tracedBaseline(const SystemConfig &cfg, Watts &rest_out, Tracer &tracer)
{
    TracedRun out = tracedRun(cfg, "baseline", 0.0, tracer);
    RunResult &base = out.result;
    rest_out = base.avgMemPower * (1.0 / cfg.memPowerFraction - 1.0);
    if (cfg.modelCpuPower) {
        double cpu_w = base.energy.cpu / tickToSec(base.runtime);
        rest_out = std::max(0.0, rest_out - cpu_w);
    }
    base.energy.rest = rest_out * tickToSec(base.runtime);
    base.avgSystemPower = base.energy.total() / tickToSec(base.runtime);
    return out;
}

// ------------------------------------------------------------------
// Workload configurations (built from the seed only)

/** Closed-loop bench defaults (bench/bench_common.hh). */
SystemConfig
closedConfig(std::uint64_t seed, const Sizes &sz)
{
    SystemConfig c;
    c.instrBudget = sz.budget;
    c.epochLen = msToTick(0.25);
    c.profileLen = usToTick(25.0);
    c.gamma = 0.10;
    c.numCores = 16;
    c.mem.numChannels = 4;
    c.memPowerFraction = 0.40;
    c.power.proportionality = 0.5;
    c.seed = seed;
    return c;
}

/** serve_energy defaults at one arrival rate, 10 us p99 target. */
SystemConfig
serveConfig(std::uint64_t seed, const Sizes &sz, double rate_m)
{
    SystemConfig c = closedConfig(seed, sz);
    c.mixName = "OPENLOOP";
    c.serving.enabled = true;
    c.serving.arrival.kind = ArrivalKind::Poisson;
    c.serving.arrival.seed = seed;
    c.serving.arrival.ratePerSec = rate_m * 1e6;
    c.serving.horizon = msToTick(sz.serveHorizonMs);
    c.serving.missesPerRequest = 8.0;
    c.serving.sloP99Us = 10.0;
    return c;
}

/** fleet_energy per-server defaults. */
SystemConfig
fleetServerConfig(std::uint64_t seed, const Sizes &sz)
{
    SystemConfig c = closedConfig(seed, sz);
    c.epochLen = msToTick(0.1);
    c.profileLen = usToTick(10.0);
    c.mixName = "OPENLOOP";
    c.numCores = 8;
    c.modelCpuPower = true;
    c.serving.enabled = true;
    c.serving.arrival.kind = ArrivalKind::Poisson;
    c.serving.arrival.seed = 0;   // each server derives its own stream
    c.serving.arrival.ratePerSec = 0.5e6;
    c.serving.horizon = msToTick(sz.fleetHorizonMs);
    c.serving.missesPerRequest = 8.0;
    c.serving.sloP99Us = 5.0;
    return c;
}

std::string
rateLabel(double rate_m)
{
    return "r" + std::to_string(static_cast<int>(rate_m));
}

/** Standalone SyntheticTraceSource::next over one closed-loop run. */
std::uint64_t
generateTrace(const SystemConfig &cfg)
{
    const MixSpec &mix = mixByName(cfg.mixName);
    const double scale = static_cast<double>(cfg.instrBudget) /
                         static_cast<double>(canonicalBudget);
    const std::uint64_t region = cfg.mem.totalBytes() / cfg.numCores;
    std::vector<AppProfile> profiles;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        profiles.push_back(scaledProfile(appForCore(mix, i), scale));
    Rng seeder(cfg.seed);
    std::uint64_t chunks = 0;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
        SyntheticTraceSource src(profiles[i], static_cast<Addr>(i) * region,
                                 cfg.mem.lineBytes, seeder.next());
        TraceChunk ch;
        while (src.generated() < cfg.instrBudget && src.next(ch))
            ++chunks;
    }
    return chunks;
}

/** Standalone ArrivalGenerator::next over one serving run's horizon. */
std::uint64_t
generateArrivals(const SystemConfig &cfg)
{
    ArrivalConfig ac = cfg.serving.arrival;
    if (ac.seed == 0)   // as the serving front end derives it
        ac.seed = deriveSeed(cfg.seed, 0xA11Au);
    ArrivalGenerator gen(ac);
    std::uint64_t n = 0;
    while (gen.next() < cfg.serving.horizon)
        ++n;
    return n;
}

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Policy names the workload instantiates. */
    virtual std::vector<std::string> policies() const = 0;
    /** Simulation runs (hash records) one repetition produces. */
    virtual std::size_t plannedRuns() const = 0;
    virtual void run(const SweepEngine &eng, Batch &b) = 0;
    virtual void runTraced(const SweepEngine &eng, Batch &b,
                           Tracer &tracer) = 0;
    /** Host-side bookkeeping after the timed window of a batch. */
    virtual void afterBatch(Batch &) {}
    /** The closed-loop and serving configs of every System run. */
    virtual std::vector<SystemConfig> systemRuns() const = 0;
};

class ClosedSweep final : public Workload
{
  public:
    ClosedSweep(std::uint64_t seed, const Sizes &sz)
    {
        for (const MixSpec &mix : allMixes()) {
            SystemConfig c = closedConfig(seed, sz);
            c.mixName = mix.name;
            cfgs_.push_back(c);
            klass_.push_back(mix.klass);
        }
    }

    std::vector<std::string> policies() const override
    {
        return {"baseline", "memscale"};
    }
    std::size_t plannedRuns() const override { return 2 * cfgs_.size(); }

    std::vector<SystemConfig>
    systemRuns() const override
    {
        std::vector<SystemConfig> out;
        for (const SystemConfig &c : cfgs_) {
            out.push_back(c);
            out.push_back(c);
        }
        return out;
    }

    void
    run(const SweepEngine &eng, Batch &b) override
    {
        std::vector<SweepCase> cases;
        for (const SystemConfig &c : cfgs_)
            cases.push_back(SweepCase{c, "memscale"});
        const std::vector<ComparisonResult> res = compareCases(eng, cases);

        std::map<std::string, std::array<double, 3>> cls;  // mem, sys, n
        double worst = 0.0;
        for (std::size_t i = 0; i < res.size(); ++i) {
            const ComparisonResult &r = res[i];
            accountPair(b, i, r.base, r.policy);
            auto &a = cls[klass_[i]];
            a[0] += r.memEnergySavings;
            a[1] += r.sysEnergySavings;
            a[2] += 1.0;
            worst = std::max(worst, r.worstCpiIncrease);
        }
        for (const auto &[k, a] : cls) {
            b.values["model.mem_savings." + k] = a[0] / a[2];
            b.values["model.sys_savings." + k] = a[1] / a[2];
        }
        b.values["model.worst_cpi_increase"] = worst;
    }

    void
    runTraced(const SweepEngine &eng, Batch &b, Tracer &tracer) override
    {
        const int root = tlsSpan;
        std::vector<TracedRun> base(cfgs_.size()), pol(cfgs_.size());
        eng.forEach(cfgs_.size(), [&](std::size_t i) {
            ScopedSpan task(tracer, "sweep.task", root, static_cast<int>(i));
            Watts rest = 0.0;
            base[i] = tracedBaseline(cfgs_[i], rest, tracer);
            pol[i] = tracedRun(cfgs_[i], "memscale", rest, tracer);
        });
        for (std::size_t i = 0; i < cfgs_.size(); ++i) {
            accountPair(b, i, base[i].result, pol[i].result);
            accountPolicy(b, *base[i].policy, base[i].result);
            accountPolicy(b, *pol[i].policy, pol[i].result);
        }
    }

  private:
    void
    accountPair(Batch &b, std::size_t i, const RunResult &base,
                const RunResult &pol) const
    {
        const SystemConfig &c = cfgs_[i];
        const double instr =
            static_cast<double>(c.instrBudget) * c.numCores;
        account(b, c.mixName + "/baseline", base, instr, c.mem.numChannels);
        account(b, c.mixName + "/memscale", pol, instr, c.mem.numChannels);
    }

    std::vector<SystemConfig> cfgs_;
    std::vector<std::string> klass_;
};

class ServeRates final : public Workload
{
  public:
    ServeRates(std::uint64_t seed, const Sizes &sz)
    {
        for (double r : ServeRatesM) {
            cfgs_.push_back(serveConfig(seed, sz, r));
            labels_.push_back(rateLabel(r));
        }
    }

    std::vector<std::string> policies() const override
    {
        return {"baseline", "memscale", "slo"};
    }
    std::size_t
    plannedRuns() const override
    {
        return cfgs_.size() * (1 + ServePolicies.size());
    }

    std::vector<SystemConfig>
    systemRuns() const override
    {
        std::vector<SystemConfig> out;
        for (std::size_t k = 0; k <= ServePolicies.size(); ++k)
            out.insert(out.end(), cfgs_.begin(), cfgs_.end());
        return out;
    }

    void
    run(const SweepEngine &eng, Batch &b) override
    {
        const std::vector<CalibratedBaseline> bases =
            runBaselines(eng, cfgs_);
        const std::vector<ComparisonResult> grid =
            comparePolicyGrid(eng, cfgs_, bases, ServePolicies);
        std::vector<const RunResult *> pol;
        for (const ComparisonResult &r : grid)
            pol.push_back(&r.policy);
        accountAll(b, bases, pol);
    }

    void
    runTraced(const SweepEngine &eng, Batch &b, Tracer &tracer) override
    {
        const int root = tlsSpan;
        const std::size_t n = cfgs_.size();
        std::vector<TracedRun> base(n);
        std::vector<CalibratedBaseline> bases(n);
        eng.forEach(n, [&](std::size_t i) {
            ScopedSpan task(tracer, "sweep.task", root, static_cast<int>(i));
            base[i] = tracedBaseline(cfgs_[i], bases[i].rest, tracer);
            bases[i].base = base[i].result;
        });
        std::vector<TracedRun> grid(ServePolicies.size() * n);
        eng.forEach(grid.size(), [&](std::size_t j) {
            ScopedSpan task(tracer, "sweep.task", root,
                            static_cast<int>(n + j));
            const std::size_t i = j % n;
            grid[j] = tracedRun(cfgs_[i], ServePolicies[j / n],
                                bases[i].rest, tracer);
        });
        std::vector<const RunResult *> pol;
        for (const TracedRun &t : grid)
            pol.push_back(&t.result);
        accountAll(b, bases, pol);
        for (const TracedRun &t : base)
            accountPolicy(b, *t.policy, t.result);
        for (const TracedRun &t : grid)
            accountPolicy(b, *t.policy, t.result);
    }

  private:
    /** Policy p on rate i sits at pol[p * rates + i]. */
    void
    accountAll(Batch &b, const std::vector<CalibratedBaseline> &bases,
               const std::vector<const RunResult *> &pol) const
    {
        const std::size_t n = cfgs_.size();
        for (std::size_t i = 0; i < n; ++i)
            accountOne(b, i, "baseline", bases[i].base);
        for (std::size_t j = 0; j < pol.size(); ++j)
            accountOne(b, j % n, ServePolicies[j / n], *pol[j]);
        // Tail of the SLO policy, the one that reacts to the window.
        for (std::size_t i = 0; i < n; ++i)
            b.values["serving.p99_us." + labels_[i]] =
                pol[(ServePolicies.size() - 1) * n + i]->serving.p99Us;
    }

    void
    accountOne(Batch &b, std::size_t i, const std::string &policy,
               const RunResult &r) const
    {
        account(b, labels_[i] + "/" + policy, r, servingInstr(r),
                cfgs_[i].mem.numChannels);
    }

    std::vector<SystemConfig> cfgs_;
    std::vector<std::string> labels_;
};

class FleetCap final : public Workload
{
  public:
    FleetCap(std::uint64_t seed, const Sizes &sz, std::string scratch)
        : scratch_(std::move(scratch))
    {
        cluster_.numServers = sz.fleetServers;
        cluster_.server = fleetServerConfig(seed, sz);
        cluster_.coordEpoch = msToTick(0.1);
        cluster_.jobs = Jobs;
    }

    std::vector<std::string> policies() const override
    {
        return {"baseline", "memscale", "fastcap"};
    }
    std::size_t plannedRuns() const override { return 3; }

    std::vector<SystemConfig>
    systemRuns() const override
    {
        std::vector<SystemConfig> out{cluster_.server};
        ClusterConfig cc = cluster_;
        cc.scratchDir = scratch_;
        const ClusterHarness h(cc);
        for (int fleet = 0; fleet < 2; ++fleet)
            for (std::uint32_t k = 0; k < cluster_.numServers; ++k)
                out.push_back(h.serverConfig(k));
        return out;
    }

    void
    run(const SweepEngine &, Batch &b) override
    {
        Watts rest = 0.0;
        const RunResult base = runBaseline(cluster_.server, rest);
        runFleets(b, base, rest, nullptr);
    }

    void
    runTraced(const SweepEngine &, Batch &b, Tracer &tracer) override
    {
        Watts rest = 0.0;
        const TracedRun base = tracedBaseline(cluster_.server, rest, tracer);
        runFleets(b, base.result, rest, &tracer);
        accountPolicy(b, *base.policy, base.result);
    }

  private:
    void
    runFleets(Batch &b, const RunResult &base, Watts rest, Tracer *tracer)
    {
        account(b, "calibrate/baseline", base, servingInstr(base),
                cluster_.server.mem.numChannels);

        // A private scratch directory per repetition (see afterBatch).
        dir_ = fs::path(scratch_) / ("rep" + std::to_string(rep_++));
        fs::remove_all(dir_);
        fs::create_directories(dir_);

        ClusterConfig probe = cluster_;
        probe.server.restWatts = rest;
        probe.policy = "memscale";
        probe.capW = 0.0;
        const FleetResult uncoord = runFleet(probe, dir_, tracer);
        accountFleet(b, "fleet/memscale", uncoord);

        ClusterConfig capped = probe;
        capped.policy = "fastcap";
        capped.capW = 0.97 * uncoord.peakEpochW;
        const FleetResult fc = runFleet(capped, dir_, tracer);
        accountFleet(b, "fleet/fastcap", fc);
        for (const FleetEpochRow &row : fc.epochs) {
            if (!row.capMet && row.allocFeasible) {
                b.runs.back().failure =
                    "fastcap epoch " + std::to_string(row.epoch) +
                    " exceeded a feasible cap";
                break;
            }
        }
        b.values["cluster.cap_violations"] = fc.capViolations;
        b.values["cluster.slo_attainment"] = fc.sloAttainment;
    }

    /** Count the repetition's checkpoint files, then delete them. */
    void
    afterBatch(Batch &b) override
    {
        if (dir_.empty())
            return;
        for (const auto &e : fs::recursive_directory_iterator(dir_)) {
            if (e.is_regular_file()) {
                b.add("snapshot.files", 1.0);
                b.add("snapshot.bytes", static_cast<double>(e.file_size()));
            }
        }
        fs::remove_all(dir_);
        dir_.clear();
    }

    /** One fleet run in its own subdirectory, so no run overwrites
     *  another's checkpoint files before they are counted. */
    static FleetResult
    runFleet(ClusterConfig cc, const fs::path &dir, Tracer *tracer)
    {
        cc.scratchDir = (dir / cc.policy).string();
        fs::create_directories(cc.scratchDir);
        ClusterHarness h(cc);
        if (!tracer)
            return h.run();
        ScopedSpan s(*tracer, "cluster.run");
        return h.run();
    }

    void
    accountFleet(Batch &b, const std::string &id, const FleetResult &f)
    {
        RunRecord rec{id, f.fleetHash, ""};
        for (std::size_t k = 0; k < f.servers.size(); ++k) {
            const RunResult &r = f.servers[k];
            addTotals(b, r, servingInstr(r), cluster_.server.mem.numChannels);
            const RunRecord server = record(id, r);
            if (rec.failure.empty() && !server.failure.empty())
                rec.failure = "server " + std::to_string(k) + ": " +
                              server.failure;
        }
        b.add("cluster.epochs", static_cast<double>(f.epochs.size()));
        b.runs.push_back(std::move(rec));
    }

    ClusterConfig cluster_;
    std::string scratch_;
    fs::path dir_;
    int rep_ = 0;
};

// ------------------------------------------------------------------
// Trace-mode extras: standalone generators and check/obs probes

/** Median of three timings of fn(); fn returns the work count. */
template <typename Fn>
std::pair<double, double>
timeMedian3(Fn fn)
{
    std::array<double, 3> t{};
    double count = 0.0;
    for (double &x : t) {
        const std::int64_t t0 = nowNs();
        count = static_cast<double>(fn());
        x = secSince(t0);
    }
    std::sort(t.begin(), t.end());
    return {count, t[1]};
}

void
generatorExtras(const Workload &w, Batch &b)
{
    std::vector<SystemConfig> closed, serving;
    for (const SystemConfig &c : w.systemRuns())
        (c.serving.enabled ? serving : closed).push_back(c);
    auto [chunks, trace_s] = timeMedian3([&] {
        std::uint64_t n = 0;
        for (const SystemConfig &c : closed)
            n += generateTrace(c);
        return n;
    });
    auto [arrivals, arrival_s] = timeMedian3([&] {
        std::uint64_t n = 0;
        for (const SystemConfig &c : serving)
            n += generateArrivals(c);
        return n;
    });
    b.values["workload.trace_chunks"] = chunks;
    b.values["workload.trace_gen_s"] = trace_s;
    b.values["workload.arrivals"] = arrivals;
    b.values["workload.arrival_gen_s"] = arrival_s;
}

/**
 * Re-run one MID and one MEM mix plus the 16 Mreq/s serving point
 * plain, with the protocol checker, and with observability on.  All
 * three variants of a point share one run id: their hashes must agree.
 */
void
checkObsProbes(std::uint64_t seed, const Sizes &sz, Batch &b)
{
    struct Point
    {
        SystemConfig cfg;
        std::string policy;
        std::string id;
    };
    std::vector<Point> points;
    for (const char *mix : {"MID3", "MEM4"}) {
        SystemConfig c = closedConfig(seed, sz);
        c.mixName = mix;
        points.push_back({c, "memscale", std::string(mix) + "/memscale"});
    }
    points.push_back({serveConfig(seed, sz, 16.0), "slo", "r16/slo"});

    constexpr const char *Variants[] = {"plain", "check", "observe"};
    constexpr int Reps = 3;
    for (const Point &p : points) {
        Watts rest = 0.0;
        runBaseline(p.cfg, rest);
        std::array<std::array<double, Reps>, 3> t{};
        for (int rep = 0; rep < Reps; ++rep) {
            for (std::size_t v = 0; v < 3; ++v) {
                SystemConfig c = p.cfg;
                c.protocolCheck = v == 1;
                c.observe = v == 2;
                const std::int64_t t0 = nowNs();
                const RunResult r = runPolicy(c, p.policy, rest);
                t[v][rep] = secSince(t0);
                b.runs.push_back(record(p.id, r));
                if (v == 1 && rep == 0) {
                    b.add("check.commands",
                          static_cast<double>(r.commandsChecked));
                    b.add("check.violations",
                          static_cast<double>(r.protocolViolations));
                }
            }
        }
        for (std::size_t v = 0; v < 3; ++v) {
            std::sort(t[v].begin(), t[v].end());
            b.add(std::string("probe.") + Variants[v] + "_s", t[v][Reps / 2]);
        }
    }
}

// ------------------------------------------------------------------
// JSON output

std::string
jstr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jvalues(const std::map<std::string, double> &m)
{
    std::string o = "{";
    for (const auto &[k, v] : m)
        o += (o.size() > 1 ? "," : "") + jstr(k) + ":" + jnum(v);
    return o + "}";
}

void
writeBatch(std::ostream &os, const Batch &b)
{
    os << "{\"traced\":" << (b.traced ? "true" : "false")
       << ",\"wall_s\":" << jnum(b.wallS) << ",\"user_s\":" << jnum(b.userS)
       << ",\"sys_s\":" << jnum(b.sysS) << ",\"error\":" << jstr(b.error)
       << ",\"runs\":[";
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
        char hash[24];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(b.runs[i].hash));
        os << (i ? "," : "") << "{\"id\":" << jstr(b.runs[i].id)
           << ",\"hash\":\"" << hash
           << "\",\"failure\":" << jstr(b.runs[i].failure) << "}";
    }
    os << "],\"values\":" << jvalues(b.values) << ",\"spans\":[";
    const std::int64_t t0 = b.spans.empty() ? 0 : b.spans.front().start;
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
        const Span &s = b.spans[i];
        os << (i ? "," : "") << "[" << jstr(s.name) << "," << s.start - t0
           << "," << s.end - t0 << "," << s.parent << "," << s.task << "]";
    }
    os << "]}";
}

// ------------------------------------------------------------------
// Driver

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    bool tiny = false;
    bool setupOnly = false;
    std::int64_t t0Ns = 0;
    std::string out;
    std::string scratch = ".bench_build/scratch";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v) != 0;
        else if (k == "--size" && (v == "full" || v == "tiny"))
            a.tiny = v == "tiny";
        else if (k == "--t0-ns")
            a.t0Ns = std::stoll(v);
        else if (k == "--out")
            a.out = v;
        else if (k == "--scratch")
            a.scratch = v;
        else
            throw std::runtime_error("bad argument " + k + " " + v);
    }
    if (!a.setupOnly && !(a.seconds > 0.0))
        throw std::runtime_error("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a, const Sizes &sz)
{
    if (a.workload == "closed_sweep")
        return std::make_unique<ClosedSweep>(a.seed, sz);
    if (a.workload == "serve_rates")
        return std::make_unique<ServeRates>(a.seed, sz);
    if (a.workload == "fleet_cap")
        return std::make_unique<FleetCap>(a.seed, sz, a.scratch);
    throw std::runtime_error("unknown workload '" + a.workload + "'");
}

std::pair<double, double>
cpuTimes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

Batch
runBatch(Workload &w, const SweepEngine &eng, bool traced)
{
    Batch b;
    b.traced = traced;
    const auto [u0, s0] = cpuTimes();
    const std::int64_t t0 = nowNs();
    try {
        if (traced) {
            Tracer tracer;
            {
                ScopedSpan root(tracer, "workload", -1);
                w.runTraced(eng, b, tracer);
            }
            b.spans = tracer.take();
        } else {
            w.run(eng, b);
        }
    } catch (const std::exception &e) {
        b.error = e.what();
    }
    b.wallS = secSince(t0);
    const auto [u1, s1] = cpuTimes();
    b.userS = u1 - u0;
    b.sysS = s1 - s0;
    try {
        w.afterBatch(b);
    } catch (const std::exception &e) {
        b.error = e.what();
    }
    return b;
}

/** Repeat batches until `budget_s` of host time has passed (>= 3). */
void
repeat(Workload &w, const SweepEngine &eng, bool traced, double budget_s,
       std::vector<Batch> &out)
{
    const std::int64_t t0 = nowNs();
    for (int n = 0; n < 3 || secSince(t0) < budget_s; ++n) {
        out.push_back(runBatch(w, eng, traced));
        if (!out.back().error.empty())
            return;
    }
}

int
benchMain(int argc, char **argv)
{
    const std::int64_t entry = nowNs();
    const Args a = parseArgs(argc, argv);
    const Sizes &sz = a.tiny ? TinySize : FullSize;

    // Set-up: generated configs, policy objects, the sweep pool.
    std::unique_ptr<Workload> w = makeWorkload(a, sz);
    for (const std::string &p : w->policies())
        makePolicy(p);
    SweepEngine eng(Jobs);
    const double setup_s =
        static_cast<double>(nowNs() - (a.t0Ns > 0 ? a.t0Ns : entry)) * 1e-9;
    if (a.setupOnly) {
        std::printf("{\"setup_s\":%s}\n", jnum(setup_s).c_str());
        return 0;
    }

    std::vector<Batch> reps;
    const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
    repeat(*w, eng, false, untraced_s, reps);
    Batch extras;
    if (a.trace) {
        repeat(*w, eng, true, a.seconds - untraced_s, reps);
        try {
            generatorExtras(*w, extras);
            checkObsProbes(a.seed, sz, extras);
        } catch (const std::exception &e) {
            extras.error = e.what();
        }
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::ostringstream os;
    os << "{\"provenance\":{\"compiler\":" << jstr(__VERSION__)
       << ",\"build_type\":" << jstr(SIMBENCH_BUILD_TYPE)
       << ",\"cxx_flags\":" << jstr(SIMBENCH_CXX_FLAGS)
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"jobs\":" << eng.jobs() << ",\"seed\":" << a.seed
       << ",\"workload\":" << jstr(a.workload)
       << ",\"size\":" << jstr(a.tiny ? "tiny" : "full") << "}"
       << ",\"setup_s\":" << jnum(setup_s)
       << ",\"peak_rss_mb\":" << jnum(static_cast<double>(ru.ru_maxrss) / 1024.0)
       << ",\"planned_runs\":" << w->plannedRuns() << ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        os << (i ? "," : "");
        writeBatch(os, reps[i]);
    }
    os << "],\"extras\":";
    writeBatch(os, extras);
    os << "}\n";

    if (a.out.empty()) {
        std::fputs(os.str().c_str(), stdout);
    } else {
        std::ofstream f(a.out);
        f << os.str();
        if (!f)
            throw std::runtime_error("cannot write " + a.out);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 2;
    }
}
