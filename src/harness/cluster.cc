#include "harness/cluster.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/log.hh"
#include "common/rng.hh"
#include "harness/differential.hh"
#include "harness/sweep.hh"
#include "memscale/policies/fastcap_policy.hh"
#include "memscale/policies/policy.hh"
#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

double
jainIndex(const std::vector<double> &x)
{
    if (x.empty())
        return 1.0;
    double sum = 0.0;
    double sumsq = 0.0;
    for (double v : x) {
        sum += v;
        sumsq += v * v;
    }
    if (sumsq <= 0.0)
        return 1.0;
    return sum * sum / (static_cast<double>(x.size()) * sumsq);
}

BudgetAllocation
allocateFleetBudget(Watts capW,
                    const std::vector<ServerTelemetry> &telemetry,
                    const std::vector<double> &weights)
{
    const std::size_t n = telemetry.size();
    if (n == 0)
        fatal("allocateFleetBudget: empty fleet");
    if (!(capW > 0.0))
        fatal("allocateFleetBudget: cap %g W must be positive", capW);

    std::vector<double> w(n, 1.0);
    if (!weights.empty()) {
        for (std::size_t k = 0; k < n; ++k) {
            w[k] = weights[k % weights.size()];
            if (!(w[k] > 0.0))
                fatal("allocateFleetBudget: weight %g must be "
                      "positive",
                      w[k]);
        }
    }

    std::vector<double> mn(n), dm(n);
    double sum_min = 0.0;
    double sum_demand = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        mn[k] = std::max(telemetry[k].minW, 0.0);
        dm[k] = std::max(telemetry[k].demandW, mn[k]);
        sum_min += mn[k];
        sum_demand += dm[k];
    }

    BudgetAllocation out;
    out.budgetW.resize(n);

    if (sum_demand <= capW) {
        // Cap is slack: everybody runs at full demand.  Granting more
        // than the demand would not buy performance, so this is the
        // work-conserving optimum, not a violation of it.
        out.budgetW.assign(dm.begin(), dm.end());
        out.theta = 1.0 / *std::min_element(w.begin(), w.end());
        return out;
    }
    if (sum_min >= capW) {
        // Even the power floors overflow the budget: scale them
        // proportionally and flag the epoch.  sum_min >= capW > 0.
        for (std::size_t k = 0; k < n; ++k)
            out.budgetW[k] = capW * mn[k] / sum_min;
        out.feasible = sum_min <= capW;
        out.theta = 0.0;
        return out;
    }

    // Weighted water-fill: grant each server the fraction
    // min(1, theta * w_k) of its (demand - min) span and bisect for
    // the largest theta that fits.  Sum is continuous and monotone in
    // theta, so 64 halvings pin the cap to machine precision —
    // work-conserving by construction.
    auto total = [&](double theta) {
        double s = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            s += mn[k] +
                 std::min(1.0, theta * w[k]) * (dm[k] - mn[k]);
        return s;
    };
    double lo = 0.0;
    double hi = 1.0 / *std::min_element(w.begin(), w.end());
    for (int it = 0; it < 64; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (total(mid) <= capW)
            lo = mid;
        else
            hi = mid;
    }
    for (std::size_t k = 0; k < n; ++k)
        out.budgetW[k] =
            mn[k] + std::min(1.0, lo * w[k]) * (dm[k] - mn[k]);
    out.theta = lo;
    return out;
}

namespace
{

constexpr std::uint64_t fleetHashSeed = 0xF1EE7C0DEull;

std::string
serverSnapshotPath(const std::string &fleet_path, std::uint32_t k)
{
    return fleet_path + ".server" + std::to_string(k);
}

void
saveTelemetry(SectionWriter &w, const ServerTelemetry &t)
{
    w.b(t.valid);
    w.f64(t.measuredW);
    w.f64(t.demandW);
    w.f64(t.minW);
    w.f64(t.slowdown);
}

ServerTelemetry
restoreTelemetry(SectionReader &r)
{
    ServerTelemetry t;
    t.valid = r.b();
    t.measuredW = r.f64();
    t.demandW = r.f64();
    t.minW = r.f64();
    t.slowdown = r.f64();
    return t;
}

void
saveRow(SectionWriter &w, const FleetEpochRow &row)
{
    w.u32(row.epoch);
    w.u64(row.start);
    w.u64(row.end);
    w.u32(static_cast<std::uint32_t>(row.budgetW.size()));
    for (double b : row.budgetW)
        w.f64(b);
    w.u32(static_cast<std::uint32_t>(row.measuredW.size()));
    for (double m : row.measuredW)
        w.f64(m);
    w.f64(row.fleetW);
    w.f64(row.fleetBudgetW);
    w.b(row.capMet);
    w.b(row.allocFeasible);
}

FleetEpochRow
restoreRow(SectionReader &r)
{
    FleetEpochRow row;
    row.epoch = r.u32();
    row.start = r.u64();
    row.end = r.u64();
    row.budgetW.resize(r.u32());
    for (double &b : row.budgetW)
        b = r.f64();
    row.measuredW.resize(r.u32());
    for (double &m : row.measuredW)
        m = r.f64();
    row.fleetW = r.f64();
    row.fleetBudgetW = r.f64();
    row.capMet = r.b();
    row.allocFeasible = r.b();
    return row;
}

} // namespace

FleetMeta
readFleetMeta(const std::string &path)
{
    SnapshotReader snap(path);
    FleetMeta meta;
    if (!snap.has("cluster"))
        return meta;
    SectionReader r = snap.section("cluster");
    meta.valid = true;
    meta.numServers = r.u32();
    meta.policy = r.str();
    meta.capW = r.f64();
    meta.coordEpoch = r.u64();
    r.u64();   // fleet seed
    r.u64();   // horizon
    r.u64();   // server epoch length
    for (std::uint32_t i = r.u32(); i > 0; --i)
        r.f64();   // weights
    for (std::uint32_t i = r.u32(); i > 0; --i)
        r.f64();   // rate scales
    for (std::uint32_t i = r.u32(); i > 0; --i)
        r.u8();    // demand mixes
    meta.epochsDone = r.u32();
    for (std::uint32_t k = 0; k < meta.numServers; ++k) {
        restoreTelemetry(r);
        r.f64();   // cumulative energy baseline
    }
    const std::uint32_t nrows = r.u32();
    for (std::uint32_t i = 0; i < nrows; ++i) {
        FleetEpochRow row = restoreRow(r);
        if (i + 1 == nrows) {
            meta.budgetW = row.budgetW;
            meta.lastFleetW = row.fleetW;
        }
    }
    return meta;
}

ClusterHarness::ClusterHarness(const ClusterConfig &cfg) : cfg_(cfg)
{
    if (cfg_.numServers == 0)
        fatal("cluster: need at least one server");
    if (!cfg_.server.serving.enabled)
        fatal("cluster: the per-server template must enable the "
              "serving front end");
    if (cfg_.coordEpoch == 0)
        fatal("cluster: zero coordination epoch");
    if (cfg_.coordEpoch < cfg_.server.epochLen)
        fatal("cluster: coordination epoch (%0.3f ms) must cover at "
              "least one policy epoch (%0.3f ms)",
              tickToMs(cfg_.coordEpoch),
              tickToMs(cfg_.server.epochLen));
    for (double w : cfg_.weights) {
        if (!(w > 0.0))
            fatal("cluster: fairness weight %g must be positive", w);
    }
    obsBudgetW_.assign(cfg_.numServers, 0.0);
    obsPowerW_.assign(cfg_.numServers, 0.0);
    obsP99Us_.assign(cfg_.numServers, 0.0);
    obsSlowdown_.assign(cfg_.numServers, 1.0);
}

SystemConfig
ClusterHarness::serverConfig(std::uint32_t k) const
{
    SystemConfig c = cfg_.server;
    // Index-keyed stream derivation: server k's seed depends only on
    // the fleet base seed and k, never on the fleet size.
    c.seed = deriveSeed(cfg_.server.seed, k);
    c.snapshot = SystemConfig::SnapshotOptions{};
    c.powerCapW = 0.0;
    if (!cfg_.rateScale.empty())
        c.serving.arrival.ratePerSec *=
            cfg_.rateScale[k % cfg_.rateScale.size()];
    if (!cfg_.demandMix.empty())
        c.serving.demandMix = cfg_.demandMix[k % cfg_.demandMix.size()];
    return c;
}

void
ClusterHarness::registerStats(StatRegistry &reg)
{
    for (std::uint32_t k = 0; k < cfg_.numServers; ++k) {
        const std::string p = "server" + std::to_string(k);
        reg.addGauge(p + ".budgetW", &obsBudgetW_[k]);
        reg.addGauge(p + ".powerW", &obsPowerW_[k]);
        reg.addGauge(p + ".p99Us", &obsP99Us_[k]);
        reg.addGauge(p + ".slowdown", &obsSlowdown_[k]);
    }
    reg.addGauge("fleet.powerW", &obsFleetW_);
    reg.addGauge("fleet.capW", [this] { return cfg_.capW; });
    reg.addGauge("fleet.epoch", &obsEpoch_);
}

FleetResult
ClusterHarness::run()
{
    const std::uint32_t n = cfg_.numServers;
    const Tick horizon = cfg_.server.serving.horizon;
    std::vector<Tick> cuts;
    for (Tick t = cfg_.coordEpoch; t < horizon; t += cfg_.coordEpoch)
        cuts.push_back(t);
    const std::size_t num_epochs = cuts.size() + 1;

    auto weight = [&](std::uint32_t k) {
        return cfg_.weights.empty()
                   ? 1.0
                   : cfg_.weights[k % cfg_.weights.size()];
    };
    std::vector<double> weights(n);
    for (std::uint32_t k = 0; k < n; ++k)
        weights[k] = weight(k);

    std::vector<ServerTelemetry> tele(n);
    std::vector<double> prev_energy(n, 0.0);
    std::vector<FleetEpochRow> rows;
    std::size_t e0 = 0;

    if (!cfg_.snapshot.resumePath.empty()) {
        SnapshotReader snap(cfg_.snapshot.resumePath);
        if (!snap.has("cluster"))
            fatal("cluster resume: %s has no cluster section",
                  cfg_.snapshot.resumePath.c_str());
        SectionReader r = snap.section("cluster");
        auto want_u64 = [&r](const char *what, std::uint64_t want) {
            const std::uint64_t got = r.u64();
            if (got != want)
                fatal("cluster resume: snapshot %s %llu does not "
                      "match run %llu",
                      what, static_cast<unsigned long long>(got),
                      static_cast<unsigned long long>(want));
        };
        const std::uint32_t ns = r.u32();
        if (ns != n)
            fatal("cluster resume: snapshot has %u servers, run has "
                  "%u",
                  ns, n);
        const std::string pol = r.str();
        if (pol != cfg_.policy)
            fatal("cluster resume: snapshot policy %s does not match "
                  "run %s",
                  pol.c_str(), cfg_.policy.c_str());
        const double cap = r.f64();
        if (cap != cfg_.capW)
            fatal("cluster resume: snapshot cap %.17g does not match "
                  "run %.17g",
                  cap, cfg_.capW);
        want_u64("coordination epoch", cfg_.coordEpoch);
        want_u64("fleet seed", cfg_.server.seed);
        want_u64("horizon", horizon);
        want_u64("server epoch length", cfg_.server.epochLen);
        auto want_list = [&r](const char *what,
                              const std::vector<double> &want) {
            const std::uint32_t cnt = r.u32();
            if (cnt != want.size())
                fatal("cluster resume: snapshot has %u %s, run has "
                      "%zu",
                      cnt, what, want.size());
            for (std::uint32_t i = 0; i < cnt; ++i) {
                const double got = r.f64();
                if (got != want[i])
                    fatal("cluster resume: snapshot %s[%u] %.17g "
                          "does not match run %.17g",
                          what, i, got, want[i]);
            }
        };
        want_list("weights", cfg_.weights);
        want_list("rate scales", cfg_.rateScale);
        const std::uint32_t nmix = r.u32();
        if (nmix != cfg_.demandMix.size())
            fatal("cluster resume: snapshot has %u demand mixes, run "
                  "has %zu",
                  nmix, cfg_.demandMix.size());
        for (std::uint32_t i = 0; i < nmix; ++i) {
            const std::uint8_t m = r.u8();
            if (m != static_cast<std::uint8_t>(cfg_.demandMix[i]))
                fatal("cluster resume: demand mix[%u] mismatch", i);
        }
        const std::uint32_t done = r.u32();
        if (done == 0 || done > cuts.size())
            fatal("cluster resume: snapshot epoch cursor %u out of "
                  "range (run has %zu cuts)",
                  done, cuts.size());
        e0 = done;
        for (std::uint32_t k = 0; k < n; ++k) {
            tele[k] = restoreTelemetry(r);
            prev_energy[k] = r.f64();
        }
        rows.resize(r.u32());
        for (FleetEpochRow &row : rows)
            row = restoreRow(r);
    }

    if (cfg_.snapshot.atEpoch > 0) {
        if (cfg_.snapshot.out.empty())
            fatal("cluster: fleet cut requested without an output "
                  "path");
        if (cfg_.snapshot.atEpoch > cuts.size())
            fatal("cluster: fleet cut after epoch %u, but the "
                  "horizon only spans %zu full epochs",
                  cfg_.snapshot.atEpoch, cuts.size());
        if (cfg_.snapshot.atEpoch <= e0)
            fatal("cluster: fleet cut after epoch %u is already "
                  "behind the resume cursor %zu",
                  cfg_.snapshot.atEpoch, e0);
    }

    // Every server and its policy are built once and stay resident
    // across coordination epochs; a fleet resume rebuilds each one
    // from its per-server file.
    SweepEngine eng(cfg_.jobs);
    std::vector<std::unique_ptr<Policy>> policies(n);
    std::vector<std::unique_ptr<System>> servers(n);
    eng.forEach(n, [&](std::size_t k) {
        SystemConfig c = serverConfig(static_cast<std::uint32_t>(k));
        if (!cfg_.snapshot.resumePath.empty())
            c.snapshot.resumePath = serverSnapshotPath(
                cfg_.snapshot.resumePath, static_cast<std::uint32_t>(k));
        policies[k] = makePolicy(cfg_.policy);
        servers[k] = std::make_unique<System>(c, *policies[k]);
    });

    std::vector<RunResult> results(n);
    FleetResult out;

    for (std::size_t e = e0; e < num_epochs; ++e) {
        const Tick start = e == 0 ? 0 : cuts[e - 1];
        const Tick end = e < cuts.size() ? cuts[e] : horizon;
        const double dt_sec = tickToSec(end - start);

        // Budgets for epoch e come from epoch e-1's telemetry — the
        // coordinator always acts on stale-by-one-epoch reports.  The
        // first epoch has none, so the cap splits by weight alone.
        BudgetAllocation alloc;
        if (cfg_.capW > 0.0) {
            bool have_tele = true;
            for (const ServerTelemetry &t : tele)
                have_tele = have_tele && t.valid;
            if (have_tele) {
                alloc = allocateFleetBudget(cfg_.capW, tele, weights);
            } else {
                double wsum = 0.0;
                for (double w : weights)
                    wsum += w;
                alloc.budgetW.resize(n);
                for (std::uint32_t k = 0; k < n; ++k)
                    alloc.budgetW[k] =
                        cfg_.capW * weights[k] / wsum;
            }
        }

        const bool fleet_cut = cfg_.snapshot.atEpoch > 0 &&
                               e + 1 == cfg_.snapshot.atEpoch;
        const bool last = e == cuts.size() ||
                          (fleet_cut && cfg_.snapshot.stopAfter);

        // Every server advances one epoch, fanned out across the sweep
        // pool.  The budget lands only after the previous boundary's
        // epoch-end decision has run (advanceTo stops after it), and
        // the energy is read without closing the open interval, so a
        // resident fleet equals one cut and resumed from files at every
        // boundary (DESIGN.md §12).  Results and telemetry are keyed by
        // server index, so they are bit-identical at any --jobs.
        std::vector<ServerTelemetry> new_tele(n);
        std::vector<Joules> energy(n);
        std::vector<double> p99(n);
        eng.forEach(n, [&](std::size_t k) {
            System &sys = *servers[k];
            sys.setPowerCap(alloc.budgetW.empty() ? 0.0
                                                  : alloc.budgetW[k]);
            if (e == cuts.size()) {
                results[k] = sys.run();
            } else {
                sys.advanceTo(end);
                if (sys.now() != end)
                    fatal("cluster: server %zu stopped before the epoch "
                          "boundary at %0.3f ms",
                          k, tickToMs(end));
                if (fleet_cut)
                    sys.checkpoint(serverSnapshotPath(
                        cfg_.snapshot.out,
                        static_cast<std::uint32_t>(k)));
                if (last)
                    results[k] = sys.finish();
            }
            if (last) {
                energy[k] = results[k].energy.total();
                p99[k] = results[k].serving.p99Us;
            } else {
                energy[k] = sys.energyNow();
                p99[k] = sys.servingStats().p99Us;
            }
            ServerTelemetry t;
            t.valid = true;
            t.measuredW = (energy[k] - prev_energy[k]) / dt_sec;
            const auto *fc =
                dynamic_cast<const FastCapPolicy *>(policies[k].get());
            if (fc != nullptr && fc->telemetry().valid) {
                t.demandW = fc->telemetry().demandW;
                t.minW = fc->telemetry().minW;
                t.slowdown = fc->telemetry().slowdown;
            } else {
                // Cap-oblivious policies report measurements only:
                // the coordinator still splits the budget, the server
                // just won't honour it.
                t.demandW = t.measuredW;
                t.minW = 0.0;
                t.slowdown = 1.0;
            }
            new_tele[k] = t;
        });

        FleetEpochRow row;
        row.epoch = static_cast<std::uint32_t>(e);
        row.start = start;
        row.end = end;
        row.budgetW = alloc.budgetW;
        row.allocFeasible = alloc.feasible;
        for (std::uint32_t k = 0; k < n; ++k) {
            prev_energy[k] = energy[k];
            row.measuredW.push_back(new_tele[k].measuredW);
            row.fleetW += new_tele[k].measuredW;
        }
        for (double b : row.budgetW)
            row.fleetBudgetW += b;
        row.capMet = cfg_.capW <= 0.0 ||
                     row.fleetW <= cfg_.capW * (1.0 + 1e-9);
        rows.push_back(row);
        tele = new_tele;

        obsEpoch_ = static_cast<double>(e);
        obsFleetW_ = row.fleetW;
        for (std::uint32_t k = 0; k < n; ++k) {
            obsBudgetW_[k] =
                row.budgetW.empty() ? 0.0 : row.budgetW[k];
            obsPowerW_[k] = row.measuredW[k];
            obsP99Us_[k] = p99[k];
            obsSlowdown_[k] = new_tele[k].slowdown;
        }

        if (fleet_cut) {
            SnapshotWriter sw;
            SectionWriter &w = sw.section("cluster");
            w.u32(n);
            w.str(cfg_.policy);
            w.f64(cfg_.capW);
            w.u64(cfg_.coordEpoch);
            w.u64(cfg_.server.seed);
            w.u64(horizon);
            w.u64(cfg_.server.epochLen);
            w.u32(static_cast<std::uint32_t>(cfg_.weights.size()));
            for (double v : cfg_.weights)
                w.f64(v);
            w.u32(static_cast<std::uint32_t>(cfg_.rateScale.size()));
            for (double v : cfg_.rateScale)
                w.f64(v);
            w.u32(static_cast<std::uint32_t>(cfg_.demandMix.size()));
            for (DemandMix m : cfg_.demandMix)
                w.u8(static_cast<std::uint8_t>(m));
            w.u32(static_cast<std::uint32_t>(e + 1));
            for (std::uint32_t k = 0; k < n; ++k) {
                saveTelemetry(w, tele[k]);
                w.f64(prev_energy[k]);
            }
            w.u32(static_cast<std::uint32_t>(rows.size()));
            for (const FleetEpochRow &rw : rows)
                saveRow(w, rw);
            sw.writeFile(cfg_.snapshot.out);
            out.fleetSnapshotPath = cfg_.snapshot.out;
            if (cfg_.snapshot.stopAfter) {
                out.stoppedAtCheckpoint = true;
                break;
            }
        }
    }

    out.servers = results;
    out.epochs = rows;
    std::uint64_t h = fleetHashSeed;
    for (const RunResult &r : results)
        h = splitmix64(h ^ hashRunResult(r));
    out.fleetHash = h;
    for (const RunResult &r : results)
        out.fleetEnergyJ += r.energy.total();
    for (const FleetEpochRow &row : rows) {
        out.peakEpochW = std::max(out.peakEpochW, row.fleetW);
        if (cfg_.capW > 0.0 && !row.capMet)
            ++out.capViolations;
    }
    const double slo = cfg_.server.serving.sloP99Us;
    if (slo > 0.0) {
        std::uint32_t met = 0;
        for (const RunResult &r : results)
            met += r.serving.p99Us <= slo ? 1 : 0;
        out.sloAttainment =
            static_cast<double>(met) / static_cast<double>(n);
    } else {
        out.sloAttainment = 1.0;
    }
    std::vector<double> slowdowns;
    for (const ServerTelemetry &t : tele)
        if (t.valid)
            slowdowns.push_back(t.slowdown);
    out.jainSlowdown = jainIndex(slowdowns);
    return out;
}

} // namespace memscale
