/**
 * @file
 * Address-mapping tests: decode/encode round-trips (property sweep
 * across configurations including the non-power-of-two 3-channel
 * case), interleaving behaviour, field ranges, and equivalence of the
 * shift/mask decode with a division-only reference over a grid of
 * power-of-two and non-power-of-two geometries.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "mem/address_map.hh"

using namespace memscale;

namespace
{

MemConfig
cfgWithChannels(std::uint32_t channels)
{
    MemConfig cfg;
    cfg.numChannels = channels;
    return cfg;
}

/**
 * The mapping written with nothing but division and modulo, as a
 * reference for the shift/mask fast path.
 */
DecodedAddr
referenceDecode(const MemConfig &cfg, Addr addr)
{
    const std::uint64_t col_low_n = cfg.colLowLines;
    const std::uint64_t col_high_n = cfg.linesPerRow() / col_low_n;
    std::uint64_t line = (addr % cfg.totalBytes()) / cfg.lineBytes;
    DecodedAddr loc;
    loc.channel = static_cast<std::uint32_t>(line % cfg.numChannels);
    line /= cfg.numChannels;
    std::uint64_t col_low = line % col_low_n;
    line /= col_low_n;
    loc.bank = static_cast<std::uint32_t>(line % cfg.banksPerRank);
    line /= cfg.banksPerRank;
    loc.rank = static_cast<std::uint32_t>(line % cfg.ranksPerChannel());
    line /= cfg.ranksPerChannel();
    std::uint64_t col_high = line % col_high_n;
    line /= col_high_n;
    loc.row = line % cfg.rowsPerBank();
    loc.column = col_high * col_low_n + col_low;
    return loc;
}

std::string
describe(const MemConfig &cfg)
{
    return "channels=" + std::to_string(cfg.numChannels) +
           " colLow=" + std::to_string(cfg.colLowLines) +
           " ranks=" + std::to_string(cfg.ranksPerChannel()) +
           " rows=" + std::to_string(cfg.rowsPerBank());
}

/** Channels x colLowLines x ranks/channel x {2^n, 3 * 2^n} rows. */
std::vector<MemConfig>
decodeGrid()
{
    std::vector<MemConfig> grid;
    for (std::uint32_t channels : {1u, 2u, 3u, 4u, 6u, 8u})
        for (std::uint32_t col_low : {1u, 2u, 4u, 8u})
            for (std::uint32_t ranks : {1u, 2u, 4u})
                for (std::uint64_t bytes : {1ull << 30, 3ull << 28}) {
                    MemConfig cfg;
                    cfg.numChannels = channels;
                    cfg.colLowLines = col_low;
                    cfg.dimmsPerChannel = ranks > 1 ? ranks / 2 : 1;
                    cfg.ranksPerDimm = ranks > 1 ? 2 : 1;
                    cfg.bytesPerRank = bytes;
                    grid.push_back(cfg);
                }
    return grid;
}

} // namespace

TEST(AddressMap, DecodeMatchesDivisionReference)
{
    int geometries = 0;
    for (const MemConfig &cfg : decodeGrid()) {
        AddressMap map(cfg);
        Rng rng(0x5eed + geometries++);
        const std::uint64_t capacity = cfg.totalBytes();
        int mismatches = 0;
        for (int i = 0; i < 100000 && mismatches < 5; ++i) {
            // Full 64-bit addresses: the capacity wrap is part of the
            // mapping under test.
            const Addr a = rng.next();
            const DecodedAddr d = map.decode(a);
            if (!(d == referenceDecode(cfg, a))) {
                ++mismatches;
                ADD_FAILURE() << describe(cfg) << " addr=" << a;
            }
            const Addr line_aligned =
                (a % capacity) / cfg.lineBytes * cfg.lineBytes;
            if (map.encode(d) != line_aligned) {
                ++mismatches;
                ADD_FAILURE() << describe(cfg) << " encode(decode("
                              << a << ")) != " << line_aligned;
            }
        }
    }
    EXPECT_EQ(geometries, 144);
}

TEST(AddressMap, FieldRanges)
{
    MemConfig cfg;
    AddressMap map(cfg);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        Addr a = (rng.next() % cfg.totalBytes()) & ~Addr(63);
        DecodedAddr d = map.decode(a);
        EXPECT_LT(d.channel, cfg.numChannels);
        EXPECT_LT(d.rank, cfg.ranksPerChannel());
        EXPECT_LT(d.bank, cfg.banksPerRank);
        EXPECT_LT(d.row, cfg.rowsPerBank());
        EXPECT_LT(d.column, cfg.linesPerRow());
    }
}

TEST(AddressMap, ConsecutiveLinesInterleaveChannels)
{
    MemConfig cfg;
    AddressMap map(cfg);
    for (Addr line = 0; line < 64; ++line) {
        DecodedAddr d = map.decode(line * cfg.lineBytes);
        EXPECT_EQ(d.channel, line % cfg.numChannels);
    }
}

TEST(AddressMap, StreamingTouchesSameRowWithinColLow)
{
    MemConfig cfg;
    AddressMap map(cfg);
    // Lines 0, 4, 8, 12 land on channel 0 with consecutive low column
    // bits in the same row (colLowLines = 4).
    DecodedAddr first = map.decode(0);
    for (Addr i = 1; i < cfg.colLowLines; ++i) {
        DecodedAddr d =
            map.decode(i * cfg.numChannels * cfg.lineBytes);
        EXPECT_EQ(d.channel, first.channel);
        EXPECT_EQ(d.bank, first.bank);
        EXPECT_EQ(d.row, first.row);
        EXPECT_EQ(d.column, first.column + i);
    }
}

class AddressMapRoundTrip
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(AddressMapRoundTrip, DecodeEncodeIdentity)
{
    MemConfig cfg = cfgWithChannels(GetParam());
    AddressMap map(cfg);
    Rng rng(GetParam() * 1234 + 1);
    for (int i = 0; i < 20000; ++i) {
        Addr a = (rng.next() % cfg.totalBytes()) & ~Addr(63);
        DecodedAddr d = map.decode(a);
        EXPECT_EQ(map.encode(d), a);
    }
}

TEST_P(AddressMapRoundTrip, DistinctLinesDistinctLocations)
{
    MemConfig cfg = cfgWithChannels(GetParam());
    AddressMap map(cfg);
    // Dense sweep of the first 4096 lines must produce 4096 distinct
    // decoded locations (verified through the encode round-trip).
    for (Addr line = 0; line < 4096; ++line) {
        Addr a = line * cfg.lineBytes;
        EXPECT_EQ(map.encode(map.decode(a)), a);
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, AddressMapRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(AddressMap, CapacityWraps)
{
    MemConfig cfg;
    AddressMap map(cfg);
    Addr beyond = cfg.totalBytes() + 128;
    DecodedAddr d = map.decode(beyond);
    EXPECT_EQ(map.encode(d), Addr(128));
}

TEST(AddressMap, BadConfigFatal)
{
    MemConfig cfg;
    cfg.colLowLines = 7;   // does not divide 128 lines/row
    EXPECT_THROW(AddressMap m(cfg), FatalError);
}
