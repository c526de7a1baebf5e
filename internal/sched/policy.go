package sched

import (
	"math"

	"dsarp/internal/snap"
)

// RefreshPolicy decides when and where refresh commands are issued. The
// controller gives the policy one chance per DRAM cycle to claim the
// channel's command-bus slot; all the paper's mechanisms (REFab, REFpb,
// Elastic, DARP, DSARP, FGR, AR) are implementations of this interface in
// package core, each built over the *Controller it serves. A policy's state
// travels in snapshots through its snap.Codec methods.
type RefreshPolicy interface {
	snap.Codec

	// Name identifies the policy in results tables.
	Name() string

	// Tick may issue at most one command through Controller.IssueCmd (a
	// refresh, or a precharge that drains a bank ahead of a pending
	// refresh). demandReady reports whether the controller has a demand
	// command it could issue this cycle — the "Can issue a demand request?"
	// decision point of the paper's Fig. 8. Tick returns true iff it
	// consumed the command slot.
	Tick(now int64, demandReady bool) bool

	// Blocked reports that demand to one bank must be held while a refresh
	// is pending on it: an all-bank refresh draining the whole rank, or a
	// per-bank refresh draining that bank.
	Blocked(rank, bank int) bool

	// NextDeadline returns the earliest cycle >= now at which the policy's
	// Tick could stop being a no-op: issue or attempt a command, change a
	// Blocked answer, consume randomness, or mutate any internal state
	// beyond the per-cycle accounting Skip replays. The clock-skipping
	// engine only skips a cycle when every component's next event lies
	// beyond it, so the bound may assume no enqueue, demand issue, or read
	// completion happens before the returned cycle. It is a lower bound:
	// answering earlier than the true next action only costs a fallback to
	// cycle stepping, but answering later would desynchronize the two
	// engines — never miss an event.
	NextDeadline(now int64) int64

	// Skip informs the policy that its Ticks for cycles [from, to) were
	// elided — NextDeadline promised each would have been a no-op — so it
	// can advance per-cycle accounting (e.g. Elastic's idle-run counter)
	// exactly as the omitted Ticks would have.
	Skip(from, to int64)
}

// NoRefresh is the ideal baseline: refresh is never performed.
type NoRefresh struct{}

// Name implements RefreshPolicy.
func (NoRefresh) Name() string { return "NoREF" }

// Tick implements RefreshPolicy: it never claims the slot.
func (NoRefresh) Tick(int64, bool) bool { return false }

// Blocked implements RefreshPolicy.
func (NoRefresh) Blocked(int, int) bool { return false }

// NextDeadline implements RefreshPolicy: there is never anything to do.
func (NoRefresh) NextDeadline(int64) int64 { return math.MaxInt64 }

// Skip implements RefreshPolicy.
func (NoRefresh) Skip(int64, int64) {}

// AppendState implements snap.Codec: NoRefresh has no state.
func (NoRefresh) AppendState(*snap.Writer) {}

// LoadState implements snap.Codec.
func (NoRefresh) LoadState(*snap.Reader) error { return nil }
