package sparql

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
)

// The paper's complexity map (Theorems 7.1–7.4) guarantees that
// adversarial NS-SPARQL queries are intractable in the worst case:
// evaluation is DP-complete already for SPARQL[AUF], BH₂ₖ-hard for
// nested NS, and P^NP_∥-complete in general.  A production engine
// therefore cannot promise to *finish* every query — it can only
// promise to *stop*.  Budget is that promise: a per-query resource
// envelope (deadline via context.Context, maximum search steps,
// maximum result rows, and a coarse memory estimate) threaded through
// every evaluation path.
//
// The hot loops of the engine call Step once per unit of work (a
// triple-index probe, a join candidate pair, a subsumption check).
// Step is designed to be nearly free: a nil *Budget short-circuits
// immediately, and a live one only bumps an atomic counter and
// compares it against a precomputed checkpoint.  The expensive part —
// polling ctx.Err() — runs once per stride (default 1024 steps), so
// the engine notices cancellation within a bounded, small amount of
// work while the per-step overhead stays in the noise.
//
// # Memory-ordering contract
//
// One Budget governs every worker of a parallel evaluation, so the
// accounting state is shared.  The contract is:
//
//   - Configuration (NewBudget, WithMaxSteps, WithMaxRows, WithMaxBytes,
//     WithStride, InjectFault) must complete before evaluation starts.
//     The limits, the context, and the fault hook are plain fields read
//     without synchronization by the hot path; publishing them to the
//     workers happens-before the workers run because the pool spawns
//     its goroutines after configuration (Go's go-statement ordering).
//     Configuring a Budget concurrently with Step is a data race.
//   - The counters (steps, rows, bytes) and the checkpoint are atomics.
//     Charging is an atomic add; readers (Steps, the checkpoint
//     comparison) see monotonic snapshots.  Counts are exact — no
//     charge is lost — but which worker crosses a limit first is
//     scheduling-dependent.
//   - The sticky error is published once with a compare-and-swap and
//     read by every Step before doing any work, so after one worker
//     trips the governor, every other worker observes the failure on
//     its next Step and unwinds.  The *first* published error wins and
//     is returned forever after, from every goroutine.
//   - The fault-injection hook fires at most once (the CAS), even when
//     several workers cross faultAt together.

// ErrCanceled is returned (wrapped) when evaluation stops because the
// query's context was canceled or its deadline expired.  The cause is
// wrapped too, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) distinguish timeout from client
// cancellation.
var ErrCanceled = errors.New("sparql: query canceled")

// BudgetKind identifies which resource of a Budget ran out.
type BudgetKind uint8

const (
	// BudgetSteps: the search-step limit (MaxSteps) was reached.
	BudgetSteps BudgetKind = iota
	// BudgetRows: the result-row limit (MaxRows) was reached.
	BudgetRows
	// BudgetMemory: the estimated memory limit (MaxBytes) was reached.
	BudgetMemory
)

func (k BudgetKind) String() string {
	switch k {
	case BudgetSteps:
		return "steps"
	case BudgetRows:
		return "rows"
	case BudgetMemory:
		return "memory"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrBudgetExceeded reports that a query exhausted one of its resource
// limits.  Match with errors.As; Kind says which limit tripped and
// Limit carries its configured value, so the error string alone is
// enough to tune the envelope ("raise -max-steps" vs "raise -max-rows").
type ErrBudgetExceeded struct {
	Kind  BudgetKind
	Limit int64 // the configured limit that tripped; 0 when unknown
}

func (e ErrBudgetExceeded) Error() string {
	msg := "sparql: query budget exceeded: max " + e.Kind.String()
	if e.Limit > 0 {
		msg += " (limit " + strconv.FormatInt(e.Limit, 10) + ")"
	}
	return msg
}

// ErrUnsupportedPattern reports a pattern node outside the algebra the
// engine implements — a malformed plan.  It is returned through the
// error paths instead of panicking, so a bad plan cannot crash a
// caller holding locks.
type ErrUnsupportedPattern struct {
	Pattern Pattern
}

func (e ErrUnsupportedPattern) Error() string {
	return fmt.Sprintf("sparql: unsupported pattern type %T", e.Pattern)
}

// DefaultStride is how many steps pass between context polls.  Powers
// of two only; the default keeps the poll far off the hot path while
// bounding the engine's reaction latency to ~a thousand index probes.
const DefaultStride = 1024

// budgetErr boxes the sticky error so it can sit behind an
// atomic.Pointer (interfaces cannot).
type budgetErr struct{ err error }

// Budget is a query's resource envelope.  The zero limits mean
// "unlimited"; a nil *Budget is valid everywhere and disables all
// accounting (every method on a nil receiver returns nil), so
// ungoverned callers simply pass nil.
//
// A single Budget may be shared by all workers of one parallel
// evaluation (see the memory-ordering contract above); sharing one
// Budget across *different* queries is not supported.
type Budget struct {
	ctx      context.Context // nil: never canceled
	maxSteps int64           // 0: unlimited
	maxRows  int64           // 0: unlimited
	maxBytes int64           // 0: unlimited
	stride   int64           // power of two

	steps   atomic.Int64
	rows    atomic.Int64
	bytes   atomic.Int64
	checkAt atomic.Int64              // next steps value that triggers a full check
	failed  atomic.Pointer[budgetErr] // sticky: first failure, returned forever after

	faultAt  int64 // fault injection: fire once steps >= faultAt
	faultErr error // nil: injection disabled
}

// NewBudget returns a budget tied to ctx (nil is allowed and means "no
// cancellation") with no resource limits and the default stride.  A
// context that is already dead poisons the budget immediately, so a
// query on a canceled request fails on its first step instead of a
// stride later.
func NewBudget(ctx context.Context) *Budget {
	b := &Budget{ctx: ctx, stride: DefaultStride}
	if ctx != nil {
		if ce := ctx.Err(); ce != nil {
			b.fail(fmt.Errorf("%w (%w)", ErrCanceled, ce))
		}
	}
	b.recalc()
	return b
}

// WithMaxSteps bounds the total search steps (0 = unlimited).
func (b *Budget) WithMaxSteps(n int64) *Budget {
	b.maxSteps = n
	b.recalc()
	return b
}

// WithMaxRows bounds the number of result rows a query may return
// (0 = unlimited).  Unlike LIMIT, hitting it is an error: the answer
// would be silently wrong if truncated.
func (b *Budget) WithMaxRows(n int64) *Budget {
	b.maxRows = n
	return b
}

// WithMaxBytes bounds the estimated bytes of materialized intermediate
// rows (0 = unlimited).  The estimate is coarse — row widths times
// rows retained — and exists to stop runaway joins, not to account
// precisely.
func (b *Budget) WithMaxBytes(n int64) *Budget {
	b.maxBytes = n
	return b
}

// WithStride sets the context-poll stride, rounded up to a power of
// two (minimum 1).  Small strides are for tests.
func (b *Budget) WithStride(n int64) *Budget {
	s := int64(1)
	for s < n {
		s <<= 1
	}
	b.stride = s
	b.recalc()
	return b
}

// InjectFault arms the test-only fault hook: the first Step at or
// after afterSteps total steps fails with err (sticky).  It simulates
// cancellation or budget exhaustion at an exact point of the search,
// so tests can probe every unwind path; production code never calls
// it.  Like the other configuration methods it must be called before
// evaluation starts; the sticky-error CAS guarantees the fault fires
// at most once even when several workers cross afterSteps together.
func (b *Budget) InjectFault(afterSteps int64, err error) {
	b.faultAt = afterSteps
	b.faultErr = err
	b.recalc()
}

// Steps reports the search steps consumed so far.  Under concurrent
// evaluation this is a monotonic snapshot.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

// Counters reports the resources consumed so far — search steps,
// result rows and estimated bytes.  Under concurrent evaluation each
// value is a monotonic snapshot; the profiler diffs two Counters calls
// to attribute consumption to an operator's wall-clock window.
func (b *Budget) Counters() (steps, rows, bytes int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.steps.Load(), b.rows.Load(), b.bytes.Load()
}

// Err returns the sticky failure, if any.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

// fail publishes err as the sticky failure; the first publisher wins
// and every caller gets the winning error back.
func (b *Budget) fail(err error) error {
	b.failed.CompareAndSwap(nil, &budgetErr{err: err})
	return b.failed.Load().err
}

// recalc positions the next checkpoint: the next stride boundary,
// clipped so that step limits and injected faults fire exactly.
func (b *Budget) recalc() {
	b.recalcFrom(b.steps.Load())
}

func (b *Budget) recalcFrom(steps int64) {
	n := steps + b.stride
	if b.maxSteps > 0 && b.maxSteps+1 < n {
		n = b.maxSteps + 1
	}
	if b.faultErr != nil && b.faultAt < n {
		n = b.faultAt
	}
	if n <= steps {
		n = steps + 1
	}
	b.checkAt.Store(n)
}

// Step charges one unit of search work.  It is the hot-path entry:
// nil receiver and non-checkpoint steps return after one atomic add.
func (b *Budget) Step() error {
	if b == nil {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	s := b.steps.Add(1)
	if s < b.checkAt.Load() {
		return nil
	}
	return b.check(s)
}

// StepN charges n units at once (bulk loops that know their size).
func (b *Budget) StepN(n int) error {
	if b == nil || n <= 0 {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	s := b.steps.Add(int64(n))
	if s < b.checkAt.Load() {
		return nil
	}
	return b.check(s)
}

// check runs the full (slow-path) inspection at a checkpoint.  Several
// workers may enter it together; the sticky CAS keeps the outcome
// single-valued and recalc is idempotent.
func (b *Budget) check(steps int64) error {
	if b.faultErr != nil && steps >= b.faultAt {
		return b.fail(b.faultErr)
	}
	if b.maxSteps > 0 && steps > b.maxSteps {
		return b.fail(ErrBudgetExceeded{Kind: BudgetSteps, Limit: b.maxSteps})
	}
	if b.ctx != nil {
		if ce := b.ctx.Err(); ce != nil {
			return b.fail(fmt.Errorf("%w (%w)", ErrCanceled, ce))
		}
	}
	b.recalcFrom(steps)
	return nil
}

// AddRows charges n result rows against the row limit.
func (b *Budget) AddRows(n int) error {
	if b == nil {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	r := b.rows.Add(int64(n))
	if b.maxRows > 0 && r > b.maxRows {
		return b.fail(ErrBudgetExceeded{Kind: BudgetRows, Limit: b.maxRows})
	}
	return nil
}

// chargeRow charges the estimated footprint of one materialized row of
// the given slot width against the memory limit.
func (b *Budget) chargeRow(width int) error {
	if b == nil || b.maxBytes == 0 {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	n := b.bytes.Add(8*int64(width) + 8) // IDs + mask word
	if n > b.maxBytes {
		return b.fail(ErrBudgetExceeded{Kind: BudgetMemory, Limit: b.maxBytes})
	}
	return nil
}
