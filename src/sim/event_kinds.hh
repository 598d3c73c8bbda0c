/**
 * @file
 * Stable identifiers for every kind of event the simulator schedules.
 *
 * Checkpointing cannot serialize an `EventCallback` closure, so each
 * schedule site tags its event with an EventKind plus up to three
 * integer operands (owner, a, b).  On resume, a registry of named
 * reconstructors — one per kind, owned by the component that scheduled
 * the original — rebuilds an equivalent closure from the tag.  The
 * enumerator values are part of the snapshot format: never renumber an
 * existing kind, only append.
 *
 * EvChanBankClosed, EvChanActOpen and EvChanPreDone are no longer
 * events but a channel's deferred rank steps (Channel::settle); they
 * keep these tags in checkpoints, where restore turns them back into
 * steps.
 */

#ifndef MEMSCALE_SIM_EVENT_KINDS_HH
#define MEMSCALE_SIM_EVENT_KINDS_HH

#include <cstdint>

namespace memscale
{

enum EventKind : std::uint32_t
{
    EvNone = 0,            ///< untagged (not checkpointable)
    EvCoreIssueMiss = 1,   ///< Core compute-chunk end -> issue miss
    EvChanBankClosed = 2,  ///< row-miss precharge done (rank step)
    EvChanActOpen = 3,     ///< ACT latched, row open (rank step)
    EvChanBurstDone = 4,   ///< data burst completes a request
    EvChanPreDone = 5,     ///< trailing precharge done (rank step)
    EvChanRelockEnter = 6, ///< frequency-relock stall begins
    EvChanRelockExit = 7,  ///< frequency-relock stall ends
    EvChanRefreshTick = 8, ///< periodic per-rank refresh arm
    EvChanRefreshDone = 9, ///< tRFC elapsed, refresh complete
    EvEpochEndProfile = 10, ///< profiling window closes
    EvEpochEndEpoch = 11,   ///< epoch closes, next one begins
    EvServeArrival = 12,    ///< open-loop front end: next request lands
    EvServeIssue = 13,      ///< serving worker compute segment ends
    EvChanPdDemote = 14,    ///< idle-ladder demotion timer fires
    EvMemMigrate = 15,      ///< periodic hot-page consolidation pass
    /**
     * Events that are never exported: the checkpoint machinery's own
     * (the periodic snapshot writer, run stops), which a resumed run
     * re-creates from the command line, and the wakeups backing a
     * channel's PreDone rank steps, which restore re-creates from the
     * steps themselves.
     */
    EvEphemeral = 0xffffffffu,
};

/** Human-readable kind name for diagnostics. */
inline const char *
eventKindName(std::uint32_t kind)
{
    switch (kind) {
      case EvNone: return "none";
      case EvCoreIssueMiss: return "core.issueMiss";
      case EvChanBankClosed: return "chan.bankClosed";
      case EvChanActOpen: return "chan.actOpen";
      case EvChanBurstDone: return "chan.burstDone";
      case EvChanPreDone: return "chan.preDone";
      case EvChanRelockEnter: return "chan.relockEnter";
      case EvChanRelockExit: return "chan.relockExit";
      case EvChanRefreshTick: return "chan.refreshTick";
      case EvChanRefreshDone: return "chan.refreshDone";
      case EvEpochEndProfile: return "epoch.endProfile";
      case EvEpochEndEpoch: return "epoch.endEpoch";
      case EvServeArrival: return "serve.arrival";
      case EvServeIssue: return "serve.issue";
      case EvChanPdDemote: return "chan.pdDemote";
      case EvMemMigrate: return "mem.migrateTick";
      case EvEphemeral: return "ephemeral";
      default: return "unknown";
    }
}

} // namespace memscale

#endif // MEMSCALE_SIM_EVENT_KINDS_HH
