/**
 * @file
 * Full-system wiring: cores + synthetic trace sources + memory
 * controller + power integrator + policy (+ epoch controller for
 * dynamic policies), run to completion of a workload mix or stepped
 * through simulated time.
 */

#ifndef MEMSCALE_HARNESS_SYSTEM_HH
#define MEMSCALE_HARNESS_SYSTEM_HH

#include <string>
#include <vector>

#include <memory>

#include "check/protocol_checker.hh"
#include "common/types.hh"
#include "harness/serving.hh"
#include "obs/epoch_recorder.hh"
#include "mem/config.hh"
#include "workload/app_profile.hh"
#include "mem/counters.hh"
#include "memscale/epoch_controller.hh"
#include "memscale/policies/policy.hh"
#include "power/params.hh"
#include "power/system_power.hh"
#include "sim/event_queue.hh"

namespace memscale
{

class StatRegistry;
class SyntheticTraceSource;

struct SystemConfig
{
    std::string mixName = "MID1";
    std::uint32_t numCores = 16;
    double cpuGHz = 4.0;
    /**
     * Instructions per application instance.  The paper runs 100M
     * SimPoints; benches default to a scaled-down budget with phase
     * schedules scaled to match (see workload/mixes.hh).
     */
    std::uint64_t instrBudget = 5'000'000;

    MemConfig mem;
    PowerParams power;

    double gamma = 0.10;               ///< max CPI degradation
    Tick epochLen = msToTick(5.0);
    Tick profileLen = usToTick(300.0);

    /** Non-memory system power; 0 means "to be calibrated". */
    Watts restWatts = 0.0;
    /** Memory subsystem share of server power at the baseline. */
    double memPowerFraction = 0.40;

    /**
     * Server power budget in Watts handed to cap-aware policies
     * (fastcap); 0 means uncapped.  A runtime knob like jobs: the
     * cluster coordinator re-assigns it every coordination epoch
     * (System::setPowerCap), so it is deliberately NOT part of the
     * snapshot fingerprint — a resumed server may carry a different
     * budget.
     */
    Watts powerCapW = 0.0;

    std::uint64_t seed = 12345;

    /**
     * When non-empty, cores cycle through these profiles instead of
     * the named mix (library users can define arbitrary workloads);
     * mixName then only labels the results.
     */
    std::vector<AppProfile> customApps;

    /**
     * Track CPU core energy explicitly (coordinated-DVFS extension).
     * Off by default: the paper keeps CPU power inside the fixed
     * rest-of-system draw, and baseline calibration subtracts the
     * modelled CPU power from it when this is on.
     */
    bool modelCpuPower = false;

    /** Hard wall on simulated time (guards runaway experiments). */
    Tick maxSimTime = msToTick(2000.0);

    /**
     * Event-kernel implementation (sim/event_queue).  Reference is the
     * simple sorted-list oracle used by the differential harness; both
     * modes must produce bit-identical results.
     */
    KernelMode kernelMode = KernelMode::Fast;

    /**
     * Attach the online DDR3 protocol checker (check/protocol_checker)
     * to every channel.  Violations are counted in RunResult; with
     * strictCheck (or MEMSCALE_STRICT=1 / -DMEMSCALE_STRICT=ON) the
     * first violation aborts the run.
     */
    bool protocolCheck = false;
    bool strictCheck = false;

    /**
     * Observability (src/obs): build a StatRegistry over the whole
     * component tree and record a per-epoch columnar timeline into
     * RunResult::obs.  Off by default; the recording path is purely
     * read-only, so enabling it leaves every simulation result —
     * including the golden state hashes — bit-identical.
     */
    bool observe = false;

    /**
     * Checkpoint/restore (src/snapshot).  Snapshot writers are
     * EvEphemeral Sample-class events and pure readers of simulation
     * state, so a run that writes checkpoints remains bit-identical
     * to one that doesn't — the golden hashes pin this.
     */
    struct SnapshotOptions
    {
        /** Write `out`.<tick> every this many ticks (0 disables). */
        Tick every = 0;
        /** Write `out` once at this absolute tick (0 disables). */
        Tick at = 0;
        /** Stop the run right after the `at` snapshot (sharding). */
        bool stopAfter = false;
        /** Output path: exact for `at`, prefix for `every`. */
        std::string out;
        /** Resume from this snapshot instead of starting at tick 0. */
        std::string resumePath;
    };
    SnapshotOptions snapshot;

    /**
     * Open-loop serving front end (harness/serving).  When enabled,
     * the synthetic trace cores are replaced by ServingWorkers fed
     * from an arrival process; the run ends at serving.horizon
     * instead of at an instruction budget.
     */
    ServingOptions serving;

    PolicyContext policyContext() const;
};

struct RunResult
{
    std::string mixName;
    std::string policyName;
    Tick runtime = 0;                    ///< last core's finish tick
    std::vector<double> coreCpi;         ///< budget CPI per core
    std::vector<std::uint64_t> coreTlm;  ///< LLC misses per core
    std::vector<std::string> coreApp;
    EnergyBreakdown energy;              ///< integrated over the run
    McCounters counters;                 ///< cumulative at end
    std::vector<EpochRecord> timeline;   ///< dynamic policies only
    Watts avgMemPower = 0.0;             ///< DIMMs + MC
    Watts avgDimmPower = 0.0;
    Watts avgSystemPower = 0.0;
    double measuredRpki = 0.0;
    double measuredWpki = 0.0;
    bool hitTimeLimit = false;
    /// @name Protocol-checker results (zero unless protocolCheck).
    /// @{
    std::uint64_t protocolViolations = 0;
    std::uint64_t commandsChecked = 0;
    std::vector<std::string> protocolViolationSamples;
    /// @}

    /**
     * Recorded epoch timeline + stat snapshots (cfg.observe runs
     * only; null otherwise).  Shared so RunResult stays cheap to
     * copy through the sweep/differential plumbing, which ignores it:
     * the state hashes and field diffs cover simulation outputs only.
     */
    std::shared_ptr<const EpochRecorder> obs;

    /// @name Checkpoint bookkeeping (excluded from result hashing —
    /// a sharded chain's final result must equal the unsharded run's).
    /// @{
    bool stoppedAtCheckpoint = false;
    std::vector<std::string> checkpointsWritten;
    /// @}

    /**
     * Open-loop serving metrics (serving runs only; valid is false
     * otherwise).  Flattened into the differential-harness vector
     * only when valid, so closed-loop hashes are untouched.
     */
    ServingStats serving;

    double avgCpi() const;
    double worstCpi() const;
};

/**
 * Summary block of a snapshot's "meta" section, exposed so tests and
 * tools can probe what a checkpoint caught mid-flight (in-flight
 * requests, powered-down ranks, pending relock/refresh events)
 * without restoring it.
 */
struct SnapshotMeta
{
    std::string mixName;
    std::string policyName;
    Tick now = 0;
    std::uint32_t doneCores = 0;
    std::uint32_t pendingEvents = 0;
    std::uint64_t inFlightRequests = 0;
    std::uint32_t ranksPoweredDown = 0;
    std::uint32_t pendingRelocks = 0;
    std::uint32_t pendingRefreshes = 0;
};

/** Parse a snapshot file's meta block (fatal on unreadable files). */
SnapshotMeta readSnapshotMeta(const std::string &path);

/**
 * One simulated server, steppable.  The constructor wires everything
 * (and, on resume, restores a snapshot); advanceTo() moves simulated
 * time forward in as many steps as the caller likes; finish() closes
 * the energy interval and collects the RunResult.  run() is exactly
 * advanceTo(the end) followed by finish().  Fleets keep servers
 * resident between coordination epochs through this interface.
 *
 * Not copyable or movable: scheduled events capture `this`.
 */
class System
{
  public:
    System(const SystemConfig &cfg, Policy &policy);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run the mix to completion and collect results. */
    RunResult run();

    /**
     * Run until tick `t`.  The stop is a Sample-class EvEphemeral
     * event at `t`, so every Hardware- and Policy-class event at `t`
     * (an epoch end included) has run when this returns — exactly the
     * state a `snapshot.at = t` checkpoint captures.  Returns early
     * when the workload ends, the time limit is hit or a stopAfter
     * checkpoint fires; a no-op once ended() or when `t` <= now().
     */
    void advanceTo(Tick t);

    /** The workload finished, the time limit hit, or a stopAfter cut. */
    bool ended() const;

    Tick now() const { return eq_.now(); }

    /**
     * Kernel events this System has executed so far (the sum of
     * runUntil()'s counts; host-side only, never hashed).  With the
     * DRAM reads and writes in the result counters it gives the
     * deterministic events-per-request cost of a run.
     */
    std::uint64_t eventsExecuted() const { return events_; }

    /**
     * Hand cap-aware policies a new server budget (0 = uncapped).
     * Takes effect at the next policy decision.
     */
    void setPowerCap(Watts w);

    /**
     * Total energy so far, including the still-open constant-frequency
     * interval: bit-equal to what finish() would report now.  Works on
     * copies of the integrator and interval baselines, so later
     * results are the same whether or not this was called.
     */
    Joules energyNow();

    /** Serving metrics as of now() (serving runs only). */
    ServingStats servingStats() const;

    /** Write a checkpoint of the current state to `path`. */
    void checkpoint(const std::string &path);

    /** Close the energy interval and collect results (call once). */
    RunResult finish();

  private:
    /** True once the closed-loop cores are done or the serving
     *  horizon is reached. */
    bool workloadDone() const;
    /** Add the open interval [lastSample_, now) to `integ`, advancing
     *  the per-core busy baselines in `stall`. */
    void accrue(SystemEnergyIntegrator &integ, std::vector<Tick> &stall,
                const IntervalActivity &cur) const;
    /** Integrate the open interval and start a new one at now. */
    void closeInterval();
    void restore(const std::string &path);
    void periodicCheckpoint();

    SystemConfig cfg_;
    Policy &policy_;
    const bool serving_;

    EventQueue eq_;
    MemoryController mc_;
    // Observability: registry + recorder exist only for observe runs.
    std::unique_ptr<StatRegistry> registry_;
    std::shared_ptr<EpochRecorder> recorder_;
    std::unique_ptr<ProtocolChecker> checker_;

    // Energy integration: a constant-frequency interval is closed
    // before every frequency change and once more in finish().
    SystemEnergyIntegrator integrator_;
    IntervalActivity last_;
    Tick lastSample_ = 0;
    /**
     * CPU-energy busy baselines (modelCpuPower only).  Closed-loop
     * cores charge busy = active minus stall; serving workers expose
     * request-service busy time directly, so this doubles as the
     * per-worker busy baseline there.
     */
    std::vector<Tick> lastStall_;

    // Workload: trace-replay cores, or the serving front end.
    std::vector<AppProfile> profiles_;
    std::vector<std::unique_ptr<SyntheticTraceSource>> sources_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> corePtrs_;
    std::unique_ptr<ServingFrontEnd> fe_;
    std::unique_ptr<EpochController> epochs_;

    std::uint32_t done_ = 0;
    std::uint64_t events_ = 0;
    bool horizonReached_ = false;
    bool stoppedAtCheckpoint_ = false;
    bool finished_ = false;
    std::vector<std::string> checkpointsWritten_;
};

} // namespace memscale

#endif // MEMSCALE_HARNESS_SYSTEM_HH
