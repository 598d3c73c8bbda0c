#include "harness/system.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "cpu/core.hh"
#include "mem/controller.hh"
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
    : cfg_(cfg), policy_(policy)
{
}

RunResult
System::run()
{
    const bool resuming = !cfg_.snapshot.resumePath.empty();
    const bool serving_mode = cfg_.serving.enabled;
    EventQueue eq(cfg_.kernelMode);
    MemoryController mc(eq, cfg_.mem);
    PolicyContext ctx = cfg_.policyContext();

    // Observability: registry + recorder exist only for observe runs;
    // both are pure readers of state the simulation maintains anyway.
    std::unique_ptr<StatRegistry> registry;
    std::shared_ptr<EpochRecorder> recorder;
    if (cfg_.observe) {
        registry = std::make_unique<StatRegistry>();
        mc.registerStats(*registry, "mc0");
        policy_.registerStats(*registry, "policy");
        recorder = std::make_shared<EpochRecorder>(registry.get());
    }

    // Optional online protocol validation.  Environment- or
    // build-level strictness attaches the checker to every run
    // regardless of the config flag.
    std::unique_ptr<ProtocolChecker> checker;
    if (cfg_.protocolCheck || cfg_.strictCheck ||
        ProtocolChecker::strictDefault()) {
        checker = std::make_unique<ProtocolChecker>(
            cfg_.strictCheck || ProtocolChecker::strictDefault());
        mc.setCommandObserver(checker.get());
    }

    // Energy integration: close a constant-frequency interval before
    // every frequency change and once more at the end of the run.
    SystemEnergyIntegrator integrator(cfg_.power, cfg_.restWatts);
    IntervalActivity last = mc.sampleActivity();
    Tick last_sample = eq.now();
    // CPU-energy bookkeeping (coordinated-DVFS extension); filled in
    // below once the cores (or serving workers) exist.  Closed-loop
    // cores charge busy = active minus stall; serving workers expose
    // request-service busy time directly, so `last_stall` doubles as
    // the per-worker busy baseline there.
    std::vector<Core *> cpu_cores;
    std::vector<Tick> last_stall;
    ServingFrontEnd *fe_raw = nullptr;
    auto close_interval = [&] {
        IntervalActivity cur = mc.sampleActivity();
        IntervalActivity d = cur;
        d.dt = eq.now() - last_sample;
        for (std::size_t i = 0; i < d.ranks.size(); ++i)
            d.ranks[i] = cur.ranks[i] - last.ranks[i];
        for (std::size_t i = 0; i < d.channelBurst.size(); ++i)
            d.channelBurst[i] = cur.channelBurst[i] -
                                last.channelBurst[i];
        if (d.dt > 0) {
            integrator.addInterval(d);
            if (cfg_.modelCpuPower && !cpu_cores.empty()) {
                // Cores still run at the clock in effect during the
                // closing interval (CPU re-clocks fire after this).
                double ghz = cpu_cores[0]->frequencyGHz();
                double dt_sec = tickToSec(d.dt);
                Joules cpu_e = 0.0;
                for (std::size_t i = 0; i < cpu_cores.size(); ++i) {
                    Core *c = cpu_cores[i];
                    Tick ds = c->stallTime() - last_stall[i];
                    last_stall[i] = c->stallTime();
                    Tick active_end =
                        c->done() ? std::min(c->doneAt(), eq.now())
                                  : eq.now();
                    Tick active = active_end > last_sample
                                      ? active_end - last_sample
                                      : 0;
                    Tick busy_t = active > ds ? active - ds : 0;
                    double busy = static_cast<double>(busy_t) /
                                  static_cast<double>(d.dt);
                    cpu_e += cfg_.power.cpuCorePower(ghz, busy) *
                             dt_sec;
                }
                integrator.addCpuEnergy(cpu_e);
            } else if (cfg_.modelCpuPower && fe_raw) {
                const double dt_sec = tickToSec(d.dt);
                Joules cpu_e = 0.0;
                for (std::size_t i = 0; i < fe_raw->numWorkers();
                     ++i) {
                    const ServingWorker &wk = fe_raw->worker(i);
                    const Tick b = wk.busyAsOf(eq.now());
                    const Tick db =
                        b > last_stall[i] ? b - last_stall[i] : 0;
                    last_stall[i] = b;
                    const double busy = std::min(
                        1.0, static_cast<double>(db) /
                                 static_cast<double>(d.dt));
                    cpu_e += cfg_.power.cpuCorePower(
                                 wk.frequencyGHz(), busy) *
                             dt_sec;
                }
                integrator.addCpuEnergy(cpu_e);
            }
        }
        last = cur;
        last_sample = eq.now();
    };
    mc.setBeforeFreqChangeHook(close_interval);

    policy_.configure(mc, ctx);
    // On resume, the refresh engines' pending events come from the
    // snapshot (clearPending() below drops anything configure()
    // scheduled); starting them here would double-refresh.
    if (!resuming) {
        mc.startRefresh();
        mc.startMigration();
    }

    // Workload construction.  Serving mode replaces the synthetic
    // trace cores with an open-loop front end fanning requests across
    // ServingWorkers; everything below that touches `cores` simply
    // iterates an empty vector then.  Closed-loop: numCores
    // instances, four per application in the mix (or the user's
    // custom profiles), phase schedules scaled to the budget.
    const double phase_scale =
        static_cast<double>(cfg_.instrBudget) /
        static_cast<double>(canonicalBudget);
    const std::uint64_t region =
        cfg_.mem.totalBytes() / cfg_.numCores;

    std::vector<AppProfile> profiles;
    std::vector<std::unique_ptr<SyntheticTraceSource>> sources;
    std::vector<std::unique_ptr<Core>> cores;
    std::vector<Core *> core_ptrs;
    std::unique_ptr<ServingFrontEnd> fe;
    if (serving_mode) {
        fe = std::make_unique<ServingFrontEnd>(
            eq, mc, cfg_.serving, cfg_.numCores, cfg_.cpuGHz,
            cfg_.seed);
        fe_raw = fe.get();
        if (registry)
            fe->registerStats(*registry, "serving");
        policy_.attachTailProbe(
            [f = fe.get()] { return f->tailWindow(); });
    } else {
        profiles.reserve(cfg_.numCores);
        Rng seeder(cfg_.seed);

        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            const AppProfile &app =
                cfg_.customApps.empty()
                    ? appForCore(mixByName(cfg_.mixName), i)
                    : cfg_.customApps[i % cfg_.customApps.size()];
            profiles.push_back(scaledProfile(app, phase_scale));
        }
        CoreParams cp;
        cp.cpuGHz = cfg_.cpuGHz;
        cp.instrBudget = cfg_.instrBudget;
        cp.runPastBudget = false;
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            Addr base = static_cast<Addr>(i) * region;
            sources.push_back(std::make_unique<SyntheticTraceSource>(
                profiles[i], base, cfg_.mem.lineBytes, seeder.next()));
            cores.push_back(std::make_unique<Core>(
                eq, i, *sources.back(), mc, cp));
            core_ptrs.push_back(cores.back().get());
        }
    }

    std::uint32_t done = 0;
    for (auto &c : cores) {
        c->setOnDone([&] {
            if (++done == cfg_.numCores)
                eq.stop();
        });
    }
    if (cfg_.modelCpuPower) {
        cpu_cores = core_ptrs;
        last_stall.assign(serving_mode ? cfg_.numCores
                                       : core_ptrs.size(),
                          0);
    }

    if (recorder) {
        ObsMeta meta;
        meta.numCores = cfg_.numCores;
        meta.numChannels = cfg_.mem.numChannels;
        meta.ranksPerChannel = cfg_.mem.ranksPerChannel();
        if (serving_mode) {
            for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
                meta.coreNames.push_back("openloop");
        } else {
            for (const AppProfile &p : profiles)
                meta.coreNames.push_back(p.name);
        }
        meta.label = cfg_.mixName + "/" + policy_.name();
        recorder->setMeta(std::move(meta));
    }

    std::unique_ptr<EpochController> epochs;
    if (policy_.dynamic()) {
        epochs = std::make_unique<EpochController>(
            eq, mc,
            serving_mode ? fe->samplers()
                         : std::vector<CpuSampler *>(core_ptrs.begin(),
                                                     core_ptrs.end()),
            policy_, ctx);
        epochs->setBeforeCpuFreqChangeHook(close_interval);
        if (recorder)
            epochs->setRecorder(recorder.get());
        // A resumed run rebuilds the in-flight epoch event from the
        // snapshot instead of arming a fresh first epoch.
        if (!resuming)
            epochs->start();
    }

    if (!resuming) {
        for (auto &c : cores)
            c->start();
        if (fe)
            fe->start();
    }

    if (resuming) {
        SnapshotReader snap(cfg_.snapshot.resumePath);
        SectionReader meta = snap.section("meta");
        verifySnapshotMeta(meta, cfg_, policy_.name(),
                           checker != nullptr, policy_.dynamic());

        // Drop everything the fresh construction scheduled (refresh
        // arming, relocks from configure()) and jump the clock; the
        // snapshot's own event list replaces it wholesale.
        eq.clearPending();
        SectionReader sim = snap.section("sim");
        eq.setNow(sim.u64());

        SectionReader mcs = snap.section("mc");
        std::vector<MemClient *> clients =
            serving_mode ? fe->clients()
                         : std::vector<MemClient *>(core_ptrs.begin(),
                                                    core_ptrs.end());
        mc.restoreState(mcs, clients);

        // Closed-loop snapshots carry a "cores" section, serving
        // snapshots a "serving" one; asking for the wrong section is
        // fatal, which is exactly the cross-mode guard we want.
        if (serving_mode) {
            SectionReader svs = snap.section("serving");
            fe->restoreState(svs);
        } else {
            SectionReader crs = snap.section("cores");
            const std::uint32_t ncores = crs.u32();
            if (ncores != cfg_.numCores)
                fatal("resume: snapshot has %u cores, run has %u",
                      ncores, cfg_.numCores);
            for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
                sources[i]->restoreState(crs);
                cores[i]->restoreState(crs);
            }
        }

        SectionReader pw = snap.section("power");
        integrator.restoreState(pw);
        last.dt = pw.u64();
        last.busMHz = pw.u32();
        last.deviceBusMHz = pw.u32();
        last.ranksPerChannel = pw.u32();
        last.numDimms = pw.u32();
        last.ranks.assign(pw.u32(), RankActivity{});
        for (RankActivity &ra : last.ranks)
            ra.restoreState(pw);
        last.channelBurst.assign(pw.u32(), 0);
        for (Tick &t : last.channelBurst)
            t = pw.u64();
        last.channelMHz.assign(pw.u32(), 0);
        for (std::uint32_t &mhz : last.channelMHz)
            mhz = pw.u32();
        last_sample = pw.u64();
        const std::uint32_t nstall = pw.u32();
        for (std::uint32_t i = 0; i < nstall; ++i) {
            const Tick s = pw.u64();
            if (i < last_stall.size())
                last_stall[i] = s;
        }

        if (epochs) {
            SectionReader es = snap.section("epoch");
            epochs->restoreState(es);
        }
        if (recorder) {
            SectionReader rs = snap.section("recorder");
            recorder->restoreState(rs);
        }
        SectionReader ps = snap.section("policy");
        policy_.restoreState(ps);
        if (checker) {
            SectionReader chs = snap.section("checker");
            checker->restoreState(chs);
        }

        done = 0;
        for (Core *c : core_ptrs) {
            if (c->done())
                ++done;
        }

        // Re-schedule the saved pending events in their original
        // execution order; fresh insertion sequences then preserve
        // every same-tick tie-break.
        const std::uint32_t npend = sim.u32();
        for (std::uint32_t i = 0; i < npend; ++i) {
            const Tick when = sim.u64();
            const auto cls = static_cast<EventClass>(sim.u8());
            EventTag tag;
            tag.kind = sim.u32();
            tag.owner = sim.u32();
            tag.a = sim.u64();
            tag.b = sim.u64();
            EventCallback cb;
            switch (tag.kind) {
              case EvCoreIssueMiss:
                if (tag.owner >= core_ptrs.size())
                    fatal("resume: core event owner %u out of range",
                          tag.owner);
                cb = core_ptrs[tag.owner]->rebuildEvent(tag.kind);
                break;
              case EvChanBankClosed:
              case EvChanActOpen:
              case EvChanBurstDone:
              case EvChanPreDone:
              case EvChanRelockEnter:
              case EvChanRelockExit:
              case EvChanRefreshTick:
              case EvChanRefreshDone:
              case EvChanPdDemote:
                cb = mc.rebuildChannelEvent(tag.owner, tag.kind,
                                            tag.a, tag.b);
                break;
              case EvMemMigrate:
                cb = mc.rebuildMigrationEvent();
                break;
              case EvEpochEndProfile:
              case EvEpochEndEpoch:
                if (!epochs)
                    fatal("resume: snapshot carries an epoch event "
                          "but the policy is static");
                cb = epochs->rebuildEvent(tag.kind);
                break;
              case EvServeArrival:
              case EvServeIssue:
                if (!fe)
                    fatal("resume: snapshot carries a serving event "
                          "but the run is closed-loop");
                cb = fe->rebuildEvent(tag.kind, tag.owner);
                break;
              default:
                fatal("resume: unknown event kind %u (%s)", tag.kind,
                      eventKindName(tag.kind));
            }
            eq.schedule(when, std::move(cb), cls, tag);
        }
    }

    // Checkpoint writers: EvEphemeral Sample-class events, pure
    // readers of simulation state.  They shift later insertion
    // sequences uniformly, preserving every relative (tick, class,
    // seq) comparison — runs with and without them are bit-identical.
    bool stopped_at_checkpoint = false;
    std::vector<std::string> checkpoints_written;
    auto write_checkpoint = [&](const std::string &path) {
        const std::vector<PendingEvent> pend = eq.exportPending();
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
        m.b(checker != nullptr);
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
        m.u64(eq.now());
        m.u32(done);
        m.u32(static_cast<std::uint32_t>(pend.size()));
        m.u64(mc.requestPool().inUse());
        m.u32(mc.ranksPoweredDown());
        m.u32(relocks);
        m.u32(refreshes);

        SectionWriter &sim = sw.section("sim");
        sim.u64(eq.now());
        sim.u32(static_cast<std::uint32_t>(pend.size()));
        for (const PendingEvent &pe : pend) {
            sim.u64(pe.when);
            sim.u8(static_cast<std::uint8_t>(pe.cls));
            sim.u32(pe.tag.kind);
            sim.u32(pe.tag.owner);
            sim.u64(pe.tag.a);
            sim.u64(pe.tag.b);
        }

        mc.saveState(sw.section("mc"));

        if (serving_mode) {
            fe->saveState(sw.section("serving"));
        } else {
            SectionWriter &crs = sw.section("cores");
            crs.u32(cfg_.numCores);
            for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
                sources[i]->saveState(crs);
                cores[i]->saveState(crs);
            }
        }

        SectionWriter &pw = sw.section("power");
        integrator.saveState(pw);
        pw.u64(last.dt);
        pw.u32(last.busMHz);
        pw.u32(last.deviceBusMHz);
        pw.u32(last.ranksPerChannel);
        pw.u32(last.numDimms);
        pw.u32(static_cast<std::uint32_t>(last.ranks.size()));
        for (const RankActivity &ra : last.ranks)
            ra.saveState(pw);
        pw.u32(static_cast<std::uint32_t>(last.channelBurst.size()));
        for (Tick t : last.channelBurst)
            pw.u64(t);
        pw.u32(static_cast<std::uint32_t>(last.channelMHz.size()));
        for (std::uint32_t mhz : last.channelMHz)
            pw.u32(mhz);
        pw.u64(last_sample);
        pw.u32(static_cast<std::uint32_t>(last_stall.size()));
        for (Tick s : last_stall)
            pw.u64(s);

        if (epochs)
            epochs->saveState(sw.section("epoch"));
        if (recorder)
            recorder->saveState(sw.section("recorder"));
        policy_.saveState(sw.section("policy"));
        if (checker)
            checker->saveState(sw.section("checker"));

        sw.writeFile(path);
        checkpoints_written.push_back(path);
    };

    if ((cfg_.snapshot.every > 0 || cfg_.snapshot.at > 0) &&
        cfg_.snapshot.out.empty())
        fatal("snapshot: checkpointing requested without an output "
              "path");
    std::function<void()> periodic;
    if (cfg_.snapshot.every > 0) {
        periodic = [&] {
            write_checkpoint(cfg_.snapshot.out + "." +
                             std::to_string(eq.now()));
            eq.scheduleIn(cfg_.snapshot.every, [&] { periodic(); },
                          EventClass::Sample, {EvEphemeral});
        };
        eq.scheduleIn(cfg_.snapshot.every, [&] { periodic(); },
                      EventClass::Sample, {EvEphemeral});
    }
    if (cfg_.snapshot.at > 0 && cfg_.snapshot.at > eq.now()) {
        eq.schedule(cfg_.snapshot.at,
                    [&] {
                        write_checkpoint(cfg_.snapshot.out);
                        if (cfg_.snapshot.stopAfter) {
                            stopped_at_checkpoint = true;
                            eq.stop();
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
    bool horizon_reached = false;
    if (fe) {
        eq.schedule(std::max(cfg_.serving.horizon, eq.now()),
                    [&] {
                        horizon_reached = true;
                        eq.stop();
                    },
                    EventClass::Sample, {EvEphemeral});
    }

    eq.runUntil(cfg_.maxSimTime);

    RunResult res;
    res.stoppedAtCheckpoint = stopped_at_checkpoint;
    res.checkpointsWritten = std::move(checkpoints_written);
    res.hitTimeLimit =
        serving_mode ? (!horizon_reached && !stopped_at_checkpoint)
                     : (done < cfg_.numCores && !stopped_at_checkpoint);
    if (res.hitTimeLimit) {
        warn("run %s/%s hit the simulated-time limit (%0.1f ms)",
             cfg_.mixName.c_str(), policy_.name().c_str(),
             tickToMs(cfg_.maxSimTime));
    }

    close_interval();

    res.mixName = cfg_.mixName;
    res.policyName = policy_.name();
    res.runtime = eq.now();
    res.energy = integrator.energy();
    res.counters = mc.sampleCounters();
    res.avgMemPower = integrator.averageMemoryPower();
    res.avgDimmPower = integrator.averageDimmPower();
    res.avgSystemPower = integrator.averagePower();
    double total_instr = 0.0;
    if (serving_mode) {
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            const ServingWorker &w = fe->worker(i);
            const double instr = static_cast<double>(w.tic(eq.now()));
            // busyTime is in picoseconds; cycles = ps * GHz / 1000.
            const double cycles =
                static_cast<double>(w.busyTime()) * cfg_.cpuGHz /
                1000.0;
            res.coreCpi.push_back(instr > 0.0 ? cycles / instr : 0.0);
            res.coreTlm.push_back(w.tlm());
            res.coreApp.push_back("openloop");
            total_instr += instr;
        }
        res.serving = fe->stats(eq.now());
    } else {
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            res.coreCpi.push_back(core_ptrs[i]->budgetCpi());
            res.coreTlm.push_back(core_ptrs[i]->tlm());
            res.coreApp.push_back(profiles[i].name);
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
    if (epochs)
        res.timeline = epochs->history();
    if (recorder) {
        // The registry dies with this frame; the recorded buffer (a
        // plain columnar copy) lives on in the result.
        recorder->detach();
        res.obs = std::move(recorder);
    }
    if (checker) {
        res.protocolViolations = checker->violations();
        res.commandsChecked = checker->commandsChecked();
        for (const ProtocolViolation &v : checker->samples())
            res.protocolViolationSamples.push_back(v.str());
        if (res.protocolViolations != 0) {
            warn("run %s/%s: %llu protocol violation(s); first: %s",
                 cfg_.mixName.c_str(), policy_.name().c_str(),
                 static_cast<unsigned long long>(
                     res.protocolViolations),
                 res.protocolViolationSamples.front().c_str());
        }
        mc.setCommandObserver(nullptr);
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
