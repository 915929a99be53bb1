/**
 * @file
 * Configurable page-size hierarchy (DESIGN.md §13).
 *
 * Mosaic's original design hard-wires exactly two page sizes (4KB base
 * pages inside 2MB large-page frames). `PageSizeHierarchy` lifts the
 * pair into an ordered list of size *levels* — level 0 is always the
 * base page, the top level is always the frame size managed by the
 * `FramePool` — so the page table, TLBs, walker, and managers can be
 * evaluated with a Trident-style third size (e.g. 4KB/64KB/2MB) without
 * disturbing the default: a default-constructed hierarchy is exactly
 * the classic {4KB, 2MB} pair and derives exactly the classic x86-64
 * four-level radix-512 page-table geometry.
 *
 * Geometry derivation. Virtual addresses are 48 bits and every
 * page-table node entry is 8 bytes. The walk descends 9-bit radix
 * indices from bit 48 down to the *top* size level, then one index per
 * size-level boundary (width = bits[l+1] - bits[l]) down to the base
 * page. A hierarchy is valid iff its levels are strictly ascending,
 * start at most at the top-level size, and (48 - topBits) is a multiple
 * of 9 so the upper radix splits evenly. For the default {12, 21} this
 * derives shifts {39, 30, 21, 12} with widths {9, 9, 9, 9} — the
 * unmodified four-level table; for the Trident triple {12, 16, 21} it
 * derives shifts {39, 30, 21, 16, 12} with widths {9, 9, 9, 5, 4}.
 */

#ifndef MOSAIC_COMMON_PAGE_SIZES_H
#define MOSAIC_COMMON_PAGE_SIZES_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace mosaic {

/** An ordered list of page-size levels, smallest (base) first. */
class PageSizeHierarchy
{
  public:
    /** Size levels a hierarchy may hold (base + up to 3 larger). */
    static constexpr unsigned kMaxSizeLevels = 4;

    /** Walk depths any valid hierarchy can derive: three radix-9
     *  levels above a 2MB top plus one per extra size boundary. */
    static constexpr unsigned kMaxWalkDepths = 6;

    /** Virtual-address width the radix table covers. */
    static constexpr unsigned kVaBits = 48;

    /** Radix index width of the levels above the top page size. */
    static constexpr unsigned kRadixBits = 9;

    /** The classic Mosaic pair: 4KB base pages, 2MB frames. */
    constexpr PageSizeHierarchy() : PageSizeHierarchy(kBasePageBits, kLargePageBits) {}

    /** Builds a hierarchy from ascending log2 sizes; asserts validity
     *  via `valid()` being a precondition of every accessor. */
    constexpr PageSizeHierarchy(std::initializer_list<unsigned> bits)
    {
        for (unsigned b : bits) {
            if (numLevels_ < kMaxSizeLevels)
                bits_[numLevels_] = b;
            ++numLevels_;
        }
        deriveDepths();
    }

    constexpr PageSizeHierarchy(unsigned baseBits, unsigned topBits)
    {
        bits_[0] = baseBits;
        bits_[1] = topBits;
        numLevels_ = 2;
        deriveDepths();
    }

    /** The default two-size pair (named for call-site readability). */
    static constexpr PageSizeHierarchy defaultPair() { return {}; }

    /** The Trident-style triple evaluated by the comparison sweep. */
    static constexpr PageSizeHierarchy
    trident()
    {
        return PageSizeHierarchy{kBasePageBits, 16, kLargePageBits};
    }

    /**
     * True when the level list derives a well-formed radix table:
     * 1..kMaxSizeLevels strictly-ascending levels, base level at least
     * 9 bits (PTE pages must hold a full index), the span above the
     * top level an exact multiple of the radix width, and every
     * adjacent pair close enough that a frame's runs of any
     * intermediate size fit the FramePool's 64-bit run masks.
     */
    constexpr bool
    valid() const
    {
        if (numLevels_ < 1 || numLevels_ > kMaxSizeLevels)
            return false;
        if (bits_[0] < kRadixBits || bits_[0] > topBits())
            return false;
        for (unsigned l = 0; l + 1 < numLevels_; ++l) {
            if (bits_[l] >= bits_[l + 1])
                return false;
            // FramePool frames track at most 512 base slots (bitset)
            // and at most 64 runs per intermediate level (64-bit mask).
            const unsigned runsPerFrameLog2 = topBits() - bits_[l];
            if (runsPerFrameLog2 > (l == 0 ? 9u : 6u))
                return false;
        }
        return (kVaBits - topBits()) % kRadixBits == 0 &&
               topBits() < kVaBits;
    }

    /** Number of size levels (1 = base only, 2 = the default pair). */
    constexpr unsigned numLevels() const { return numLevels_; }

    /** log2 of the page size at @p level (0 = base). */
    constexpr unsigned bits(unsigned level) const { return bits_[level]; }

    /** Page size in bytes at @p level. */
    constexpr std::uint64_t bytes(unsigned level) const
    {
        return std::uint64_t(1) << bits_[level];
    }

    /** Index of the top (frame-sized) level. */
    constexpr unsigned topLevel() const { return numLevels_ - 1; }

    /** log2 of the top-level (frame) size. */
    constexpr unsigned topBits() const { return bits_[numLevels_ - 1]; }

    /**
     * True when at least one larger size sits above the base and the top
     * level is the FramePool's 2MB frame: the shape the Mosaic and
     * 2MB-only managers need, since both map whole frames at the top.
     */
    constexpr bool
    frameSizedTop() const
    {
        return numLevels_ >= 2 && topBits() == kLargePageBits;
    }

    /** Pages of level @p level per page of level @p level + 1. */
    constexpr std::uint64_t
    slotsPerParent(unsigned level) const
    {
        return std::uint64_t(1) << (bits_[level + 1] - bits_[level]);
    }

    /** Base pages per page of @p level. */
    constexpr std::uint64_t
    basePagesPer(unsigned level) const
    {
        return std::uint64_t(1) << (bits_[level] - bits_[0]);
    }

    /** Address of the start of the @p level page containing @p addr. */
    constexpr Addr
    pageBase(Addr addr, unsigned level) const
    {
        return addr & ~(bytes(level) - 1);
    }

    /** Virtual page number of @p addr at @p level granularity. */
    constexpr std::uint64_t
    pageNumber(Addr addr, unsigned level) const
    {
        return addr >> bits_[level];
    }

    /** True when @p addr is aligned to a @p level page boundary. */
    constexpr bool
    aligned(Addr addr, unsigned level) const
    {
        return (addr & (bytes(level) - 1)) == 0;
    }

    /** Number of page-table walk depths this hierarchy derives. */
    constexpr unsigned numWalkDepths() const { return numDepths_; }

    /** Low bit covered by one entry of the node at walk depth @p d
     *  (the classic formula 12 + 9*(3-d) for the default pair). */
    constexpr unsigned shiftAtDepth(unsigned d) const { return shifts_[d]; }

    /** Index width in bits of the node at walk depth @p d. */
    constexpr unsigned
    indexBitsAtDepth(unsigned d) const
    {
        return (d == 0 ? kVaBits : shifts_[d - 1]) - shifts_[d];
    }

    /** Fanout (entry count) of the node at walk depth @p d. */
    constexpr std::uint64_t
    fanoutAtDepth(unsigned d) const
    {
        return std::uint64_t(1) << indexBitsAtDepth(d);
    }

    /**
     * Walk depth whose node holds the coalesced bit for size level
     * @p level >= 1: the depth whose entries each cover one @p level
     * page. Depth 2 for the default pair's 2MB level — exactly the
     * "L3 large bit" of the paper.
     */
    constexpr unsigned
    coalesceBitDepth(unsigned level) const
    {
        for (unsigned d = 0; d < numDepths_; ++d) {
            if (shifts_[d] == bits_[level])
                return d;
        }
        return numDepths_;  // unreachable for a valid hierarchy
    }

    /** Size level whose pages one entry at depth @p d covers, or -1
     *  when depth @p d is not a size-level boundary above base. */
    constexpr int
    levelAtDepth(unsigned d) const
    {
        for (unsigned l = 1; l < numLevels_; ++l) {
            if (shifts_[d] == bits_[l])
                return static_cast<int>(l);
        }
        return -1;
    }

    /** Human name of @p level: "base", "large" (top), "mid"/"mid2". */
    const char *
    levelName(unsigned level) const
    {
        if (level == 0)
            return "base";
        if (level == topLevel())
            return "large";
        return level == 1 ? "mid" : "mid2";
    }

    /** True when this hierarchy is the unmodified default pair. */
    constexpr bool
    isDefaultPair() const
    {
        return numLevels_ == 2 && bits_[0] == kBasePageBits &&
               bits_[1] == kLargePageBits;
    }

    constexpr bool
    operator==(const PageSizeHierarchy &o) const
    {
        if (numLevels_ != o.numLevels_)
            return false;
        for (unsigned l = 0; l < numLevels_; ++l) {
            if (bits_[l] != o.bits_[l])
                return false;
        }
        return true;
    }
    constexpr bool operator!=(const PageSizeHierarchy &o) const
    {
        return !(*this == o);
    }

    /** "4K,2M"-style rendering (exact powers print as K/M/G). */
    std::string
    toString() const
    {
        std::string out;
        for (unsigned l = 0; l < numLevels_; ++l) {
            if (l > 0)
                out += ',';
            const unsigned b = bits_[l];
            if (b >= 30 && (b - 30) < 10)
                out += std::to_string(1u << (b - 30)) + "G";
            else if (b >= 20)
                out += std::to_string(1u << (b - 20)) + "M";
            else
                out += std::to_string(1u << (b - 10)) + "K";
        }
        return out;
    }

    /**
     * Parses a comma-separated size list ("4K,64K,2M", "4096,2097152",
     * or raw log2 values like "12,16,21" when every element is < 64).
     * Returns false on any syntax error or an invalid hierarchy.
     */
    static bool
    parse(const std::string &spec, PageSizeHierarchy &out)
    {
        PageSizeHierarchy h;
        h.numLevels_ = 0;
        std::size_t pos = 0;
        while (pos <= spec.size()) {
            std::size_t comma = spec.find(',', pos);
            if (comma == std::string::npos)
                comma = spec.size();
            std::uint64_t value = 0;
            std::size_t i = pos;
            while (i < comma && spec[i] >= '0' && spec[i] <= '9')
                value = value * 10 + unsigned(spec[i++] - '0');
            if (i == pos)
                return false;  // no digits
            unsigned suffixShift = 0;
            if (i < comma) {
                const char c = spec[i];
                if (c == 'K' || c == 'k')
                    suffixShift = 10;
                else if (c == 'M' || c == 'm')
                    suffixShift = 20;
                else if (c == 'G' || c == 'g')
                    suffixShift = 30;
                else
                    return false;
                if (i + 1 != comma)
                    return false;
            }
            std::uint64_t sizeBytes = value << suffixShift;
            if (suffixShift == 0 && value < 64)
                sizeBytes = std::uint64_t(1) << value;  // raw log2
            if (sizeBytes == 0 || (sizeBytes & (sizeBytes - 1)) != 0)
                return false;  // not a power of two
            unsigned b = 0;
            while ((std::uint64_t(1) << b) < sizeBytes)
                ++b;
            if (h.numLevels_ >= kMaxSizeLevels)
                return false;
            h.bits_[h.numLevels_++] = b;
            if (comma == spec.size())
                break;
            pos = comma + 1;
        }
        h.deriveDepths();
        if (!h.valid())
            return false;
        out = h;
        return true;
    }

  private:
    constexpr void
    deriveDepths()
    {
        if (numLevels_ < 1 || numLevels_ > kMaxSizeLevels)
            return;  // invalid; valid() reports it
        const unsigned top = bits_[numLevels_ - 1];
        if (top >= kVaBits || (kVaBits - top) % kRadixBits != 0)
            return;
        numDepths_ = 0;
        // Radix-9 levels from the VA top down to the top page size.
        for (unsigned s = kVaBits - kRadixBits; s + 1 > top; s -= kRadixBits) {
            shifts_[numDepths_++] = s;
            if (s == top)
                break;
        }
        // One depth per size-level boundary below the top.
        for (unsigned l = numLevels_ - 1; l-- > 0;)
            shifts_[numDepths_++] = bits_[l];
    }

    unsigned bits_[kMaxSizeLevels] = {};
    unsigned numLevels_ = 0;
    unsigned shifts_[kMaxWalkDepths] = {};
    unsigned numDepths_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_PAGE_SIZES_H
