/**
 * @file
 * Physical address to channel/rank/bank/row/column mapping.
 *
 * The default scheme interleaves consecutive cache lines across
 * channels first (maximizing channel parallelism, the paper's
 * configuration), keeps a small run of lines within a row (so
 * streaming accesses can merge into row hits when they queue up
 * back-to-back), then interleaves across banks and ranks.
 *
 * The line index is a mixed-radix number (channel, low column, bank,
 * rank, high column, row from least significant up).  Each radix that
 * is a power of two — every one in the default geometry — is peeled
 * off with a shift and a mask; any other radix (the 3-channel point
 * of Fig. 13, a non-power-of-two row count) falls back to division
 * and modulo, so both paths give the same digits by arithmetic.
 */

#ifndef MEMSCALE_MEM_ADDRESS_MAP_HH
#define MEMSCALE_MEM_ADDRESS_MAP_HH

#include "common/types.hh"
#include "mem/config.hh"
#include "mem/request.hh"

namespace memscale
{

class AddressMap
{
  public:
    explicit AddressMap(const MemConfig &cfg);

    /** Decode a byte address into its physical location. */
    DecodedAddr decode(Addr addr) const;

    /** Inverse of decode (line-aligned); used by tests. */
    Addr encode(const DecodedAddr &loc) const;

    /** Total addressable bytes. */
    std::uint64_t capacity() const { return capacity_.n; }

  private:
    /**
     * One radix of the mapping.  `shift` is log2(n) when n is a power
     * of two and Pow2None otherwise, selecting the division path.
     */
    struct Radix
    {
        static constexpr unsigned Pow2None = ~0u;

        std::uint64_t n;
        unsigned shift;

        explicit Radix(std::uint64_t size);

        std::uint64_t
        mod(std::uint64_t x) const
        {
            return shift != Pow2None ? x & (n - 1) : x % n;
        }

        std::uint64_t
        div(std::uint64_t x) const
        {
            return shift != Pow2None ? x >> shift : x / n;
        }
    };

    Radix capacity_;
    Radix lineBytes_;
    Radix channels_;
    Radix colLow_;
    Radix banks_;
    Radix ranks_;
    Radix colHigh_;
    Radix rows_;
};

} // namespace memscale

#endif // MEMSCALE_MEM_ADDRESS_MAP_HH
