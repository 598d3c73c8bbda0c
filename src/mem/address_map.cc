#include "mem/address_map.hh"

#include <bit>

#include "common/log.hh"

namespace memscale
{

AddressMap::Radix::Radix(std::uint64_t size)
    : n(size),
      shift(std::has_single_bit(size)
                ? static_cast<unsigned>(std::countr_zero(size))
                : Pow2None)
{}

AddressMap::AddressMap(const MemConfig &cfg)
    : capacity_(cfg.totalBytes()),
      lineBytes_(cfg.lineBytes),
      channels_(cfg.numChannels),
      colLow_(cfg.colLowLines),
      banks_(cfg.banksPerRank),
      ranks_(cfg.ranksPerChannel()),
      colHigh_(cfg.linesPerRow() / cfg.colLowLines),
      rows_(cfg.rowsPerBank())
{
    if (channels_.n == 0 || banks_.n == 0 || ranks_.n == 0 ||
        rows_.n == 0)
        fatal("AddressMap: degenerate memory configuration");
    if (cfg.linesPerRow() % colLow_.n != 0)
        fatal("AddressMap: colLowLines must divide lines per row");
}

DecodedAddr
AddressMap::decode(Addr addr) const
{
    std::uint64_t line = lineBytes_.div(capacity_.mod(addr));
    DecodedAddr loc;
    loc.channel = static_cast<std::uint32_t>(channels_.mod(line));
    line = channels_.div(line);
    std::uint64_t col_low = colLow_.mod(line);
    line = colLow_.div(line);
    loc.bank = static_cast<std::uint32_t>(banks_.mod(line));
    line = banks_.div(line);
    loc.rank = static_cast<std::uint32_t>(ranks_.mod(line));
    line = ranks_.div(line);
    std::uint64_t col_high = colHigh_.mod(line);
    line = colHigh_.div(line);
    loc.row = rows_.mod(line);
    loc.column = col_high * colLow_.n + col_low;
    return loc;
}

Addr
AddressMap::encode(const DecodedAddr &loc) const
{
    std::uint64_t col_high = loc.column / colLow_.n;
    std::uint64_t col_low = loc.column % colLow_.n;
    std::uint64_t line = loc.row;
    line = line * colHigh_.n + col_high;
    line = line * ranks_.n + loc.rank;
    line = line * banks_.n + loc.bank;
    line = line * colLow_.n + col_low;
    line = line * channels_.n + loc.channel;
    return line * lineBytes_.n;
}

} // namespace memscale
