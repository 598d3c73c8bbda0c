#include "harness/system.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "cpu/core.hh"
#include "mem/controller.hh"
#include "obs/stat_registry.hh"
#include "sim/event_kinds.hh"
#include "sim/event_queue.hh"
#include "snapshot/serializer.hh"
#include "workload/mixes.hh"
#include "workload/trace_source.hh"

namespace memscale
{

namespace
{

/**
 * Check the snapshot's configuration fingerprint against the resuming
 * run.  A snapshot only replays bit-identically into the exact system
 * it was taken from, so any mismatch is fatal with a named field
 * rather than a silently diverging simulation.
 */
void
verifySnapshotMeta(SectionReader &m, const SystemConfig &cfg,
                   const std::string &policy_name, bool has_checker,
                   bool dynamic_policy)
{
    auto want_str = [&](const char *what, const std::string &want) {
        const std::string got = m.str();
        if (got != want)
            fatal("resume: snapshot %s '%s' does not match run '%s'",
                  what, got.c_str(), want.c_str());
    };
    auto want_u64 = [&](const char *what, std::uint64_t want) {
        const std::uint64_t got = m.u64();
        if (got != want)
            fatal("resume: snapshot %s %llu does not match run %llu",
                  what, static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    };
    auto want_u32 = [&](const char *what, std::uint32_t want) {
        const std::uint32_t got = m.u32();
        if (got != want)
            fatal("resume: snapshot %s %u does not match run %u",
                  what, got, want);
    };
    auto want_f64 = [&](const char *what, double want) {
        const double got = m.f64();
        if (got != want)
            fatal("resume: snapshot %s %.17g does not match run "
                  "%.17g",
                  what, got, want);
    };
    auto want_b = [&](const char *what, bool want) {
        const bool got = m.b();
        if (got != want)
            fatal("resume: snapshot %s %d does not match run %d",
                  what, got ? 1 : 0, want ? 1 : 0);
    };

    want_str("mix", cfg.mixName);
    want_str("policy", policy_name);
    want_u32("numCores", cfg.numCores);
    want_f64("cpuGHz", cfg.cpuGHz);
    want_u64("instrBudget", cfg.instrBudget);
    want_u64("epochLen", cfg.epochLen);
    want_u64("profileLen", cfg.profileLen);
    want_f64("gamma", cfg.gamma);
    want_u64("seed", cfg.seed);
    want_f64("restWatts", cfg.restWatts);
    want_u32("numChannels", cfg.mem.numChannels);
    want_u32("ranksPerChannel", cfg.mem.ranksPerChannel());
    want_u32("banksPerRank", cfg.mem.banksPerRank);
    const std::uint8_t km = m.u8();
    if (km != static_cast<std::uint8_t>(cfg.kernelMode))
        fatal("resume: snapshot kernel mode %u does not match run %u",
              km, static_cast<unsigned>(cfg.kernelMode));
    want_b("observe", cfg.observe);
    want_b("modelCpuPower", cfg.modelCpuPower);
    want_b("protocolCheck", has_checker);
    want_b("dynamicPolicy", dynamic_policy);
    want_u32("customApps",
             static_cast<std::uint32_t>(cfg.customApps.size()));
    // Idle-ladder fingerprint: demotion thresholds and consolidation
    // knobs shape the event stream and the migrator's remap table, so
    // a snapshot is only valid under the exact same ladder config.
    const IdleLadderConfig &lc = cfg.mem.ladder;
    want_u64("ladder.demoteSlowPd", lc.demoteSlowPd);
    want_u64("ladder.demoteSelfRefresh", lc.demoteSelfRefresh);
    want_u64("ladder.demoteSrSlow", lc.demoteSrSlow);
    want_u64("ladder.demoteDeepPd", lc.demoteDeepPd);
    want_b("ladder.migrate", lc.migrate);
    want_u64("ladder.migrateInterval", lc.migrateInterval);
    want_u32("ladder.hotRanks", lc.hotRanks);
    want_u32("ladder.hotThreshold", lc.hotThreshold);
    want_u32("ladder.maxSwapsPerInterval", lc.maxSwapsPerInterval);
    want_u32("ladder.migrationLines", lc.migrationLines);
    want_u32("ladder.counterSets", lc.counterSets);
}

} // namespace

PolicyContext
SystemConfig::policyContext() const
{
    PolicyContext ctx;
    ctx.power = power;
    ctx.mem = mem;
    ctx.restWatts = restWatts;
    ctx.gamma = gamma;
    ctx.cpuGHz = cpuGHz;
    ctx.epochLen = epochLen;
    ctx.profileLen = profileLen;
    ctx.sloP99Us = serving.sloP99Us;
    ctx.powerCapW = powerCapW;
    return ctx;
}

double
RunResult::avgCpi() const
{
    if (coreCpi.empty())
        return 0.0;
    double s = 0.0;
    for (double c : coreCpi)
        s += c;
    return s / static_cast<double>(coreCpi.size());
}

double
RunResult::worstCpi() const
{
    double w = 0.0;
    for (double c : coreCpi)
        w = std::max(w, c);
    return w;
}

System::System(const SystemConfig &cfg, Policy &policy)
    : cfg_(cfg), policy_(policy), serving_(cfg.serving.enabled),
      eq_(cfg.kernelMode), mc_(eq_, cfg.mem),
      integrator_(cfg.power, cfg.restWatts)
{
    const bool resuming = !cfg_.snapshot.resumePath.empty();
    const PolicyContext ctx = cfg_.policyContext();

    // Observability: registry + recorder exist only for observe runs;
    // both are pure readers of state the simulation maintains anyway.
    if (cfg_.observe) {
        registry_ = std::make_unique<StatRegistry>();
        mc_.registerStats(*registry_, "mc0");
        policy_.registerStats(*registry_, "policy");
        recorder_ = std::make_shared<EpochRecorder>(registry_.get());
    }

    // Optional online protocol validation.  Environment- or
    // build-level strictness attaches the checker to every run
    // regardless of the config flag.
    if (cfg_.protocolCheck || cfg_.strictCheck ||
        ProtocolChecker::strictDefault()) {
        checker_ = std::make_unique<ProtocolChecker>(
            cfg_.strictCheck || ProtocolChecker::strictDefault());
        mc_.setCommandObserver(checker_.get());
    }

    last_ = mc_.sampleActivity();
    lastSample_ = eq_.now();
    mc_.setBeforeFreqChangeHook([this] { closeInterval(); });

    policy_.configure(mc_, ctx);
    // On resume, the refresh engines' pending events come from the
    // snapshot (clearPending() in restore() drops anything configure()
    // scheduled); starting them here would double-refresh.
    if (!resuming) {
        mc_.startRefresh();
        mc_.startMigration();
    }

    // Workload construction.  Serving mode replaces the synthetic
    // trace cores with an open-loop front end fanning requests across
    // ServingWorkers; everything below that touches `cores_` simply
    // iterates an empty vector then.  Closed-loop: numCores
    // instances, four per application in the mix (or the user's
    // custom profiles), phase schedules scaled to the budget.
    if (serving_) {
        fe_ = std::make_unique<ServingFrontEnd>(
            eq_, mc_, cfg_.serving, cfg_.numCores, cfg_.cpuGHz,
            cfg_.seed);
        if (registry_)
            fe_->registerStats(*registry_, "serving");
        policy_.attachTailProbe(
            [f = fe_.get()] { return f->tailWindow(); });
    } else {
        const double phase_scale =
            static_cast<double>(cfg_.instrBudget) /
            static_cast<double>(canonicalBudget);
        const std::uint64_t region =
            cfg_.mem.totalBytes() / cfg_.numCores;
        profiles_.reserve(cfg_.numCores);
        Rng seeder(cfg_.seed);

        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            const AppProfile &app =
                cfg_.customApps.empty()
                    ? appForCore(mixByName(cfg_.mixName), i)
                    : cfg_.customApps[i % cfg_.customApps.size()];
            profiles_.push_back(scaledProfile(app, phase_scale));
        }
        CoreParams cp;
        cp.cpuGHz = cfg_.cpuGHz;
        cp.instrBudget = cfg_.instrBudget;
        cp.runPastBudget = false;
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            Addr base = static_cast<Addr>(i) * region;
            sources_.push_back(std::make_unique<SyntheticTraceSource>(
                profiles_[i], base, cfg_.mem.lineBytes,
                seeder.next()));
            cores_.push_back(std::make_unique<Core>(
                eq_, i, *sources_.back(), mc_, cp));
            corePtrs_.push_back(cores_.back().get());
        }
    }

    for (auto &c : cores_) {
        c->setOnDone([this] {
            if (++done_ == cfg_.numCores)
                eq_.stop();
        });
    }
    if (cfg_.modelCpuPower)
        lastStall_.assign(cfg_.numCores, 0);

    if (recorder_) {
        ObsMeta meta;
        meta.numCores = cfg_.numCores;
        meta.numChannels = cfg_.mem.numChannels;
        meta.ranksPerChannel = cfg_.mem.ranksPerChannel();
        if (serving_) {
            for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
                meta.coreNames.push_back("openloop");
        } else {
            for (const AppProfile &p : profiles_)
                meta.coreNames.push_back(p.name);
        }
        meta.label = cfg_.mixName + "/" + policy_.name();
        recorder_->setMeta(std::move(meta));
    }

    if (policy_.dynamic()) {
        epochs_ = std::make_unique<EpochController>(
            eq_, mc_,
            serving_ ? fe_->samplers()
                     : std::vector<CpuSampler *>(corePtrs_.begin(),
                                                 corePtrs_.end()),
            policy_, ctx);
        epochs_->setBeforeCpuFreqChangeHook([this] { closeInterval(); });
        if (recorder_)
            epochs_->setRecorder(recorder_.get());
        // A resumed run rebuilds the in-flight epoch event from the
        // snapshot instead of arming a fresh first epoch.
        if (!resuming)
            epochs_->start();
    }

    if (resuming) {
        restore(cfg_.snapshot.resumePath);
    } else {
        for (auto &c : cores_)
            c->start();
        if (fe_)
            fe_->start();
    }

    // Checkpoint writers: EvEphemeral Sample-class events, pure
    // readers of simulation state.  They shift later insertion
    // sequences uniformly, preserving every relative (tick, class,
    // seq) comparison — runs with and without them are bit-identical.
    if ((cfg_.snapshot.every > 0 || cfg_.snapshot.at > 0) &&
        cfg_.snapshot.out.empty())
        fatal("snapshot: checkpointing requested without an output "
              "path");
    if (cfg_.snapshot.every > 0) {
        eq_.scheduleIn(cfg_.snapshot.every,
                       [this] { periodicCheckpoint(); },
                       EventClass::Sample, {EvEphemeral});
    }
    if (cfg_.snapshot.at > 0 && cfg_.snapshot.at > eq_.now()) {
        eq_.schedule(cfg_.snapshot.at,
                     [this] {
                         checkpoint(cfg_.snapshot.out);
                         if (cfg_.snapshot.stopAfter) {
                             stoppedAtCheckpoint_ = true;
                             eq_.stop();
                         }
                     },
                     EventClass::Sample, {EvEphemeral});
    }

    // Serving runs end at the arrival horizon, not at an instruction
    // budget.  The stop is an EvEphemeral Sample-class event: never
    // exported, re-armed from the config on resume, and ordered after
    // any same-tick hardware/policy work (Sample runs last), so the
    // final tick's completions are all counted.  Scheduled after the
    // checkpoint events so a same-tick `--checkpoint-at` still
    // writes before the stop.
    if (fe_) {
        eq_.schedule(std::max(cfg_.serving.horizon, eq_.now()),
                     [this] {
                         horizonReached_ = true;
                         eq_.stop();
                     },
                     EventClass::Sample, {EvEphemeral});
    }
}

System::~System()
{
    if (checker_)
        mc_.setCommandObserver(nullptr);
}

void
System::restore(const std::string &path)
{
    SnapshotReader snap(path);
    SectionReader meta = snap.section("meta");
    verifySnapshotMeta(meta, cfg_, policy_.name(), checker_ != nullptr,
                       policy_.dynamic());

    // Drop everything the fresh construction scheduled (refresh
    // arming, relocks from configure()) and jump the clock; the
    // snapshot's own event list replaces it wholesale.
    eq_.clearPending();
    SectionReader sim = snap.section("sim");
    eq_.setNow(sim.u64());

    SectionReader mcs = snap.section("mc");
    std::vector<MemClient *> clients =
        serving_ ? fe_->clients()
                 : std::vector<MemClient *>(corePtrs_.begin(),
                                            corePtrs_.end());
    mc_.restoreState(mcs, clients);

    // Closed-loop snapshots carry a "cores" section, serving
    // snapshots a "serving" one; asking for the wrong section is
    // fatal, which is exactly the cross-mode guard we want.
    if (serving_) {
        SectionReader svs = snap.section("serving");
        fe_->restoreState(svs);
    } else {
        SectionReader crs = snap.section("cores");
        const std::uint32_t ncores = crs.u32();
        if (ncores != cfg_.numCores)
            fatal("resume: snapshot has %u cores, run has %u", ncores,
                  cfg_.numCores);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            sources_[i]->restoreState(crs);
            cores_[i]->restoreState(crs);
        }
    }

    SectionReader pw = snap.section("power");
    integrator_.restoreState(pw);
    last_.dt = pw.u64();
    last_.busMHz = pw.u32();
    last_.deviceBusMHz = pw.u32();
    last_.ranksPerChannel = pw.u32();
    last_.numDimms = pw.u32();
    last_.ranks.assign(pw.u32(), RankActivity{});
    for (RankActivity &ra : last_.ranks)
        ra.restoreState(pw);
    last_.channelBurst.assign(pw.u32(), 0);
    for (Tick &t : last_.channelBurst)
        t = pw.u64();
    last_.channelMHz.assign(pw.u32(), 0);
    for (std::uint32_t &mhz : last_.channelMHz)
        mhz = pw.u32();
    lastSample_ = pw.u64();
    const std::uint32_t nstall = pw.u32();
    for (std::uint32_t i = 0; i < nstall; ++i) {
        const Tick s = pw.u64();
        if (i < lastStall_.size())
            lastStall_[i] = s;
    }

    if (epochs_) {
        SectionReader es = snap.section("epoch");
        epochs_->restoreState(es);
    }
    if (recorder_) {
        SectionReader rs = snap.section("recorder");
        recorder_->restoreState(rs);
    }
    SectionReader ps = snap.section("policy");
    policy_.restoreState(ps);
    if (checker_) {
        SectionReader chs = snap.section("checker");
        checker_->restoreState(chs);
    }

    done_ = 0;
    for (Core *c : corePtrs_) {
        if (c->done())
            ++done_;
    }

    // Re-schedule the saved pending events (and re-reserve the
    // deferred rank steps) in their original execution order; fresh
    // insertion sequences then preserve every same-tick tie-break.
    const std::uint32_t npend = sim.u32();
    for (std::uint32_t i = 0; i < npend; ++i) {
        const Tick when = sim.u64();
        const auto cls = static_cast<EventClass>(sim.u8());
        EventTag tag;
        tag.kind = sim.u32();
        tag.owner = sim.u32();
        tag.a = sim.u64();
        tag.b = sim.u64();
        if (Channel::isStepKind(tag.kind)) {
            // A deferred rank step takes its key in saved order too.
            mc_.restoreChannelStep(when, eq_.reserveKey(cls), tag);
            continue;
        }
        EventCallback cb;
        switch (tag.kind) {
          case EvCoreIssueMiss:
            if (tag.owner >= corePtrs_.size())
                fatal("resume: core event owner %u out of range",
                      tag.owner);
            cb = corePtrs_[tag.owner]->rebuildEvent(tag.kind);
            break;
          case EvChanBurstDone:
          case EvChanRelockEnter:
          case EvChanRelockExit:
          case EvChanRefreshTick:
          case EvChanRefreshDone:
          case EvChanPdDemote:
            cb = mc_.rebuildChannelEvent(tag.owner, tag.kind, tag.a,
                                         tag.b);
            break;
          case EvMemMigrate:
            cb = mc_.rebuildMigrationEvent();
            break;
          case EvEpochEndProfile:
          case EvEpochEndEpoch:
            if (!epochs_)
                fatal("resume: snapshot carries an epoch event "
                      "but the policy is static");
            cb = epochs_->rebuildEvent(tag.kind);
            break;
          case EvServeArrival:
          case EvServeIssue:
            if (!fe_)
                fatal("resume: snapshot carries a serving event "
                      "but the run is closed-loop");
            cb = fe_->rebuildEvent(tag.kind, tag.owner);
            break;
          default:
            fatal("resume: unknown event kind %u (%s)", tag.kind,
                  eventKindName(tag.kind));
        }
        eq_.schedule(when, std::move(cb), cls, tag);
    }
}

void
System::accrue(SystemEnergyIntegrator &integ, std::vector<Tick> &stall,
               const IntervalActivity &cur) const
{
    IntervalActivity d = cur;
    d.dt = eq_.now() - lastSample_;
    for (std::size_t i = 0; i < d.ranks.size(); ++i)
        d.ranks[i] = cur.ranks[i] - last_.ranks[i];
    for (std::size_t i = 0; i < d.channelBurst.size(); ++i)
        d.channelBurst[i] = cur.channelBurst[i] - last_.channelBurst[i];
    if (d.dt == 0)
        return;
    integ.addInterval(d);
    if (!cfg_.modelCpuPower)
        return;
    const double dt_sec = tickToSec(d.dt);
    Joules cpu_e = 0.0;
    if (!corePtrs_.empty()) {
        // Cores still run at the clock in effect during the closing
        // interval (CPU re-clocks fire after this).
        const double ghz = corePtrs_[0]->frequencyGHz();
        for (std::size_t i = 0; i < corePtrs_.size(); ++i) {
            const Core *c = corePtrs_[i];
            const Tick ds = c->stallTime() - stall[i];
            stall[i] = c->stallTime();
            const Tick active_end =
                c->done() ? std::min(c->doneAt(), eq_.now())
                          : eq_.now();
            const Tick active =
                active_end > lastSample_ ? active_end - lastSample_ : 0;
            const Tick busy_t = active > ds ? active - ds : 0;
            const double busy = static_cast<double>(busy_t) /
                                static_cast<double>(d.dt);
            cpu_e += cfg_.power.cpuCorePower(ghz, busy) * dt_sec;
        }
    } else if (fe_) {
        for (std::size_t i = 0; i < fe_->numWorkers(); ++i) {
            const ServingWorker &wk = fe_->worker(i);
            const Tick b = wk.busyAsOf(eq_.now());
            const Tick db = b > stall[i] ? b - stall[i] : 0;
            stall[i] = b;
            const double busy = std::min(
                1.0, static_cast<double>(db) / static_cast<double>(d.dt));
            cpu_e += cfg_.power.cpuCorePower(wk.frequencyGHz(), busy) *
                     dt_sec;
        }
    } else {
        return;
    }
    integ.addCpuEnergy(cpu_e);
}

void
System::closeInterval()
{
    IntervalActivity cur = mc_.sampleActivity();
    accrue(integrator_, lastStall_, cur);
    last_ = std::move(cur);
    lastSample_ = eq_.now();
}

Joules
System::energyNow()
{
    // sampleActivity() only brings the ranks' integer residency
    // counters up to now, which leaves every later interval sum
    // unchanged; the integrator and baselines are copies.
    IntervalActivity cur = mc_.sampleActivity();
    SystemEnergyIntegrator integ = integrator_;
    std::vector<Tick> stall = lastStall_;
    accrue(integ, stall, cur);
    return integ.energy().total();
}

ServingStats
System::servingStats() const
{
    return fe_ ? fe_->stats(eq_.now()) : ServingStats{};
}

void
System::setPowerCap(Watts w)
{
    cfg_.powerCapW = w;
    // The epoch controller hands its own PolicyContext copy to every
    // policy decision, so that is the copy the budget must reach.
    if (epochs_)
        epochs_->setPowerCap(w);
}

bool
System::workloadDone() const
{
    return serving_ ? horizonReached_ : done_ == cfg_.numCores;
}

bool
System::ended() const
{
    return workloadDone() || stoppedAtCheckpoint_ ||
           eq_.now() >= cfg_.maxSimTime;
}

void
System::advanceTo(Tick t)
{
    if (finished_)
        fatal("System::advanceTo after finish()");
    if (ended() || t <= eq_.now())
        return;
    if (t >= cfg_.maxSimTime) {
        events_ += eq_.runUntil(cfg_.maxSimTime);
        return;
    }
    const EventId stop = eq_.schedule(t, [this] { eq_.stop(); },
                                      EventClass::Sample,
                                      {EvEphemeral});
    events_ += eq_.runUntil(cfg_.maxSimTime);
    // Still pending when the run ended before `t`.
    eq_.cancel(stop);
}

RunResult
System::run()
{
    advanceTo(cfg_.maxSimTime);
    return finish();
}

void
System::periodicCheckpoint()
{
    checkpoint(cfg_.snapshot.out + "." + std::to_string(eq_.now()));
    eq_.scheduleIn(cfg_.snapshot.every, [this] { periodicCheckpoint(); },
                   EventClass::Sample, {EvEphemeral});
}

void
System::checkpoint(const std::string &path)
{
    // Rank steps the kernel has passed belong to the saved state; the
    // rest are listed with the pending events under their keys.
    mc_.settle();
    const std::vector<PendingEvent> pend =
        eq_.exportPending(mc_.deferredSteps());
    std::uint32_t relocks = 0;
    std::uint32_t refreshes = 0;
    for (const PendingEvent &pe : pend) {
        if (pe.tag.kind == EvChanRelockEnter ||
            pe.tag.kind == EvChanRelockExit)
            ++relocks;
        if (pe.tag.kind == EvChanRefreshDone)
            ++refreshes;
    }

    SnapshotWriter sw;
    SectionWriter &m = sw.section("meta");
    m.str(cfg_.mixName);
    m.str(policy_.name());
    m.u32(cfg_.numCores);
    m.f64(cfg_.cpuGHz);
    m.u64(cfg_.instrBudget);
    m.u64(cfg_.epochLen);
    m.u64(cfg_.profileLen);
    m.f64(cfg_.gamma);
    m.u64(cfg_.seed);
    m.f64(cfg_.restWatts);
    m.u32(cfg_.mem.numChannels);
    m.u32(cfg_.mem.ranksPerChannel());
    m.u32(cfg_.mem.banksPerRank);
    m.u8(static_cast<std::uint8_t>(cfg_.kernelMode));
    m.b(cfg_.observe);
    m.b(cfg_.modelCpuPower);
    m.b(checker_ != nullptr);
    m.b(policy_.dynamic());
    m.u32(static_cast<std::uint32_t>(cfg_.customApps.size()));
    const IdleLadderConfig &lc = cfg_.mem.ladder;
    m.u64(lc.demoteSlowPd);
    m.u64(lc.demoteSelfRefresh);
    m.u64(lc.demoteSrSlow);
    m.u64(lc.demoteDeepPd);
    m.b(lc.migrate);
    m.u64(lc.migrateInterval);
    m.u32(lc.hotRanks);
    m.u32(lc.hotThreshold);
    m.u32(lc.maxSwapsPerInterval);
    m.u32(lc.migrationLines);
    m.u32(lc.counterSets);
    // Summary block (SnapshotMeta): what the checkpoint caught
    // mid-flight, for diagnostics and test probes.
    m.u64(eq_.now());
    m.u32(done_);
    m.u32(static_cast<std::uint32_t>(pend.size()));
    m.u64(mc_.requestPool().inUse());
    m.u32(mc_.ranksPoweredDown());
    m.u32(relocks);
    m.u32(refreshes);

    SectionWriter &sim = sw.section("sim");
    sim.u64(eq_.now());
    sim.u32(static_cast<std::uint32_t>(pend.size()));
    for (const PendingEvent &pe : pend) {
        sim.u64(pe.when);
        sim.u8(static_cast<std::uint8_t>(pe.cls));
        sim.u32(pe.tag.kind);
        sim.u32(pe.tag.owner);
        sim.u64(pe.tag.a);
        sim.u64(pe.tag.b);
    }

    mc_.saveState(sw.section("mc"));

    if (serving_) {
        fe_->saveState(sw.section("serving"));
    } else {
        SectionWriter &crs = sw.section("cores");
        crs.u32(cfg_.numCores);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            sources_[i]->saveState(crs);
            cores_[i]->saveState(crs);
        }
    }

    SectionWriter &pw = sw.section("power");
    integrator_.saveState(pw);
    pw.u64(last_.dt);
    pw.u32(last_.busMHz);
    pw.u32(last_.deviceBusMHz);
    pw.u32(last_.ranksPerChannel);
    pw.u32(last_.numDimms);
    pw.u32(static_cast<std::uint32_t>(last_.ranks.size()));
    for (const RankActivity &ra : last_.ranks)
        ra.saveState(pw);
    pw.u32(static_cast<std::uint32_t>(last_.channelBurst.size()));
    for (Tick t : last_.channelBurst)
        pw.u64(t);
    pw.u32(static_cast<std::uint32_t>(last_.channelMHz.size()));
    for (std::uint32_t mhz : last_.channelMHz)
        pw.u32(mhz);
    pw.u64(lastSample_);
    pw.u32(static_cast<std::uint32_t>(lastStall_.size()));
    for (Tick s : lastStall_)
        pw.u64(s);

    if (epochs_)
        epochs_->saveState(sw.section("epoch"));
    if (recorder_)
        recorder_->saveState(sw.section("recorder"));
    policy_.saveState(sw.section("policy"));
    if (checker_)
        checker_->saveState(sw.section("checker"));

    sw.writeFile(path);
    checkpointsWritten_.push_back(path);
}

RunResult
System::finish()
{
    if (finished_)
        fatal("System::finish called twice");
    finished_ = true;

    RunResult res;
    res.stoppedAtCheckpoint = stoppedAtCheckpoint_;
    res.checkpointsWritten = std::move(checkpointsWritten_);
    res.hitTimeLimit = !workloadDone() && !stoppedAtCheckpoint_ &&
                       eq_.now() >= cfg_.maxSimTime;
    if (res.hitTimeLimit) {
        warn("run %s/%s hit the simulated-time limit (%0.1f ms)",
             cfg_.mixName.c_str(), policy_.name().c_str(),
             tickToMs(cfg_.maxSimTime));
    }

    closeInterval();

    res.mixName = cfg_.mixName;
    res.policyName = policy_.name();
    res.runtime = eq_.now();
    res.energy = integrator_.energy();
    res.counters = mc_.sampleCounters();
    res.avgMemPower = integrator_.averageMemoryPower();
    res.avgDimmPower = integrator_.averageDimmPower();
    res.avgSystemPower = integrator_.averagePower();
    double total_instr = 0.0;
    if (serving_) {
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            const ServingWorker &w = fe_->worker(i);
            const double instr = static_cast<double>(w.tic(eq_.now()));
            // busyTime is in picoseconds; cycles = ps * GHz / 1000.
            const double cycles =
                static_cast<double>(w.busyTime()) * cfg_.cpuGHz /
                1000.0;
            res.coreCpi.push_back(instr > 0.0 ? cycles / instr : 0.0);
            res.coreTlm.push_back(w.tlm());
            res.coreApp.push_back("openloop");
            total_instr += instr;
        }
        res.serving = fe_->stats(eq_.now());
    } else {
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            res.coreCpi.push_back(corePtrs_[i]->budgetCpi());
            res.coreTlm.push_back(corePtrs_[i]->tlm());
            res.coreApp.push_back(profiles_[i].name);
        }
        total_instr = static_cast<double>(cfg_.instrBudget) *
                      cfg_.numCores;
    }
    if (total_instr > 0.0) {
        res.measuredRpki = 1000.0 *
                           static_cast<double>(res.counters.reads) /
                           total_instr;
        res.measuredWpki = 1000.0 *
                           static_cast<double>(res.counters.writes) /
                           total_instr;
    }
    if (epochs_)
        res.timeline = epochs_->history();
    if (recorder_) {
        // The registry dies with this System; the recorded buffer (a
        // plain columnar copy) lives on in the result.
        recorder_->detach();
        res.obs = std::move(recorder_);
    }
    if (checker_) {
        res.protocolViolations = checker_->violations();
        res.commandsChecked = checker_->commandsChecked();
        for (const ProtocolViolation &v : checker_->samples())
            res.protocolViolationSamples.push_back(v.str());
        if (res.protocolViolations != 0) {
            warn("run %s/%s: %llu protocol violation(s); first: %s",
                 cfg_.mixName.c_str(), policy_.name().c_str(),
                 static_cast<unsigned long long>(
                     res.protocolViolations),
                 res.protocolViolationSamples.front().c_str());
        }
    }
    return res;
}

SnapshotMeta
readSnapshotMeta(const std::string &path)
{
    SnapshotReader snap(path);
    SectionReader m = snap.section("meta");
    SnapshotMeta out;
    out.mixName = m.str();
    out.policyName = m.str();
    m.u32();  // numCores
    m.f64();  // cpuGHz
    m.u64();  // instrBudget
    m.u64();  // epochLen
    m.u64();  // profileLen
    m.f64();  // gamma
    m.u64();  // seed
    m.f64();  // restWatts
    m.u32();  // numChannels
    m.u32();  // ranksPerChannel
    m.u32();  // banksPerRank
    m.u8();   // kernelMode
    m.b();    // observe
    m.b();    // modelCpuPower
    m.b();    // protocolCheck
    m.b();    // dynamicPolicy
    m.u32();  // customApps
    m.u64();  // ladder.demoteSlowPd
    m.u64();  // ladder.demoteSelfRefresh
    m.u64();  // ladder.demoteSrSlow
    m.u64();  // ladder.demoteDeepPd
    m.b();    // ladder.migrate
    m.u64();  // ladder.migrateInterval
    m.u32();  // ladder.hotRanks
    m.u32();  // ladder.hotThreshold
    m.u32();  // ladder.maxSwapsPerInterval
    m.u32();  // ladder.migrationLines
    m.u32();  // ladder.counterSets
    out.now = m.u64();
    out.doneCores = m.u32();
    out.pendingEvents = m.u32();
    out.inFlightRequests = m.u64();
    out.ranksPoweredDown = m.u32();
    out.pendingRelocks = m.u32();
    out.pendingRefreshes = m.u32();
    return out;
}

} // namespace memscale
