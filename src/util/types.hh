/**
 * @file
 * Fundamental scalar types shared by every module in the RAMpage
 * simulator: addresses, time (integer picoseconds), cycle counts and
 * process identifiers.
 *
 * All simulated time is kept in integer picoseconds so that costs such
 * as the Direct Rambus 1.25 ns transfer beat and a 4 GHz (250 ps) CPU
 * cycle compose without rounding drift.
 */

#ifndef RAMPAGE_UTIL_TYPES_HH
#define RAMPAGE_UTIL_TYPES_HH

#include <cstdint>

namespace rampage
{

/** A virtual or physical byte address. */
using Addr = std::uint64_t;

/** Simulated time in integer picoseconds. */
using Tick = std::uint64_t;

/** A count of CPU (issue) cycles. */
using Cycles = std::uint64_t;

/** Process (address-space) identifier; traces carry one per stream. */
using Pid = std::uint16_t;

/**
 * Identifier of one CPU core (one CoreFrontend) in a multicore
 * system.  Every request a frontend issues to the shared memory
 * backend carries one (see core/core_frontend.hh).
 */
using CoreId = std::uint32_t;

/** Reserved pid for operating-system handler references. */
constexpr Pid osPid = 0xffff;

/**
 * Virtual base of the pinned OS image: handler code, then handler
 * data, then (under RAMpage) the inverted page table.
 */
constexpr Addr osVirtBase = 0x0001'0000;

/** Picoseconds per common units. */
constexpr Tick psPerNs = 1000;
constexpr Tick psPerUs = 1000 * psPerNs;
constexpr Tick psPerMs = 1000 * psPerUs;
constexpr Tick psPerSec = 1000 * psPerMs;

/** Bytes per common units. */
constexpr std::uint64_t kib = 1024;
constexpr std::uint64_t mib = 1024 * kib;
constexpr std::uint64_t gib = 1024 * mib;

} // namespace rampage

#endif // RAMPAGE_UTIL_TYPES_HH
