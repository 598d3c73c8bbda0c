/**
 * @file
 * The end-to-end benchmark's seed-1 result hashes, pinned in tier-1.
 *
 * simbench (simbench/simbench.cc) checks every simulation it runs
 * against simbench/expected_hashes.json.  This suite recomputes the
 * closed_sweep ids (12 mixes x baseline/memscale) and the serve_rates
 * ids (3 arrival rates x baseline/memscale/slo) at the benchmark's
 * full size through the same library entry points, and compares them
 * with that file read in place, so a change that moves a benchmark
 * hash fails here instead of only in the benchmark run.
 *
 * Every mix runs: an ordering slip in the event kernel can move a
 * single mix (ILP2, say) and leave the other eleven and all the
 * goldens untouched.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workload/mixes.hh"

using namespace memscale;

namespace
{

/** One workload's `"id": "hash"` object from expected_hashes.json. */
std::map<std::string, std::string>
expectedHashes(const std::string &workload)
{
    std::ifstream in(MEMSCALE_BENCH_HASHES);
    if (!in)
        ADD_FAILURE() << "cannot open " << MEMSCALE_BENCH_HASHES;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::map<std::string, std::string> out;
    const std::size_t open = text.find("\"" + workload + "\"");
    if (open == std::string::npos)
        return out;
    const std::size_t begin = text.find('{', open);
    const std::size_t end = text.find('}', begin);
    const std::string body = text.substr(begin, end - begin);
    static const std::regex pair("\"([^\"]+)\"\\s*:\\s*\"([0-9a-f]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), pair), last;
         it != last; ++it)
        out[(*it)[1]] = (*it)[2];
    return out;
}

std::string
hex(const RunResult &r)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hashRunResult(r)));
    return buf;
}

/** simbench's closedConfig() at full size, seed 1. */
SystemConfig
closedConfig()
{
    SystemConfig c;
    c.instrBudget = 2'000'000;
    c.epochLen = msToTick(0.25);
    c.profileLen = usToTick(25.0);
    c.gamma = 0.10;
    c.numCores = 16;
    c.mem.numChannels = 4;
    c.memPowerFraction = 0.40;
    c.power.proportionality = 0.5;
    c.seed = 1;
    return c;
}

/** simbench's serveConfig() at full size (4 ms horizon), seed 1. */
SystemConfig
serveConfig(double rate_m)
{
    SystemConfig c = closedConfig();
    c.mixName = "OPENLOOP";
    c.serving.enabled = true;
    c.serving.arrival.kind = ArrivalKind::Poisson;
    c.serving.arrival.seed = 1;
    c.serving.arrival.ratePerSec = rate_m * 1e6;
    c.serving.horizon = msToTick(4.0);
    c.serving.missesPerRequest = 8.0;
    c.serving.sloP99Us = 10.0;
    return c;
}

/**
 * Baselines plus the policy grid; ids are "<label>/<policy>".  Every
 * id computed must be in `expected` with the same hash.
 */
void
checkGrid(const std::string &workload,
          const std::vector<SystemConfig> &cfgs,
          const std::vector<std::string> &labels,
          const std::vector<std::string> &policies)
{
    const std::map<std::string, std::string> expected =
        expectedHashes(workload);
    const SweepEngine eng(2);
    const std::vector<CalibratedBaseline> bases =
        runBaselines(eng, cfgs);
    const std::vector<ComparisonResult> grid =
        comparePolicyGrid(eng, cfgs, bases, policies);

    std::map<std::string, std::string> got;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        got[labels[i] + "/baseline"] = hex(bases[i].base);
    for (std::size_t j = 0; j < grid.size(); ++j)
        got[labels[j % cfgs.size()] + "/" + policies[j / cfgs.size()]] =
            hex(grid[j].policy);

    ASSERT_EQ(got.size(), cfgs.size() * (1 + policies.size()));
    for (const auto &[id, hash] : got) {
        auto it = expected.find(id);
        ASSERT_NE(it, expected.end())
            << workload << ": no expected hash for " << id;
        EXPECT_EQ(hash, it->second) << workload << " " << id;
    }
}

} // namespace

TEST(BenchHashes, ExpectedFileIsReadable)
{
    EXPECT_GE(expectedHashes("closed_sweep").size(), 24u);
    EXPECT_GE(expectedHashes("serve_rates").size(), 9u);
}

TEST(BenchHashes, ClosedSweepAllMixes)
{
    std::vector<SystemConfig> cfgs;
    std::vector<std::string> labels;
    for (const MixSpec &mix : allMixes()) {
        SystemConfig c = closedConfig();
        c.mixName = mix.name;
        cfgs.push_back(c);
        labels.push_back(mix.name);
    }
    ASSERT_EQ(cfgs.size(), 12u);
    checkGrid("closed_sweep", cfgs, labels, {"memscale"});
}

TEST(BenchHashes, ServeRates)
{
    std::vector<SystemConfig> cfgs;
    std::vector<std::string> labels;
    for (double r : {2.0, 8.0, 16.0}) {
        cfgs.push_back(serveConfig(r));
        labels.push_back("r" + std::to_string(static_cast<int>(r)));
    }
    checkGrid("serve_rates", cfgs, labels, {"memscale", "slo"});
}
