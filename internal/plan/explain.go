// Plan explanation: the planner's decisions, recorded on the Prepared
// plan and surfaced through nsserve's profile=1 responses and `nsq
// -stats`.  Everything here is immutable after Prepare — runtime
// counters (replans, merge runs) live in the obs profile instead, so
// one cached plan can serve concurrent queries.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/sparql"
)

// PlannerVersion tags plans produced by this planner generation; it is
// part of nsserve's plan-cache key, so upgrading the planner (or
// flipping its options) can never serve a stale plan shape.
const PlannerVersion = 2

// PlannerOptions selects the planning algorithm.  The zero value is
// the production default: DP join ordering with cost-gated join
// strategies and adaptive mid-query re-optimization.
type PlannerOptions struct {
	// Greedy forces the v1 greedy ordering heuristic with the purely
	// structural merge-join gate and no re-optimization — the ablation
	// baseline.
	Greedy bool
	// NoReplan keeps the v2 ordering but disables the adaptive
	// executor's mid-query re-planning.
	NoReplan bool
	// DPMaxPatterns is the connected-component size above which DP
	// ordering falls back to greedy (0 = DefaultDPMaxPatterns).
	DPMaxPatterns int
	// ReplanFactor is the observed/estimated cardinality drift ratio
	// that triggers a re-plan (0 = DefaultReplanFactor).
	ReplanFactor float64
}

func (po PlannerOptions) dpMax() int {
	if po.DPMaxPatterns <= 0 {
		return DefaultDPMaxPatterns
	}
	return po.DPMaxPatterns
}

func (po PlannerOptions) replanFactor() float64 {
	if po.ReplanFactor <= 0 {
		return DefaultReplanFactor
	}
	return po.ReplanFactor
}

func (po PlannerOptions) name() string {
	if po.Greedy {
		return "greedy"
	}
	return "dp"
}

// CacheTag renders the options (plus the planner version) as a short
// string for plan-cache keys: two queries planned under different
// planner configurations must never share a cache entry.
func (po PlannerOptions) CacheTag() string {
	return fmt.Sprintf("v%d:%s:replan=%t:dpmax=%d:factor=%g",
		PlannerVersion, po.name(), !po.NoReplan && !po.Greedy, po.dpMax(), po.replanFactor())
}

// ScanChoice records the index permutation one triple pattern scans —
// the leading constants select it (see rdf.Store.MatchIDs) — plus the
// exact scan cardinality the planner ordered by.
type ScanChoice struct {
	Pattern string  `json:"pattern"`
	Index   string  `json:"index"` // "SPO" | "POS" | "OSP"
	Est     float64 `json:"est"`
}

// JoinChoice records the strategy decision for one binary node whose
// operands are both index scans (the nodes where merge vs hash is a
// real choice).
type JoinChoice struct {
	Op       string  `json:"op"` // "and" | "opt"
	Left     string  `json:"left"`
	Right    string  `json:"right"`
	Strategy string  `json:"strategy"` // "merge" | "hash"
	Est      float64 `json:"est"`      // estimated join output
}

// Explain is the recorded plan: what the planner chose and why a
// reader should believe it.  Serialized as the "plan" block of
// profile=1 responses.
type Explain struct {
	Planner      string  `json:"planner"` // "dp" | "greedy"
	Version      int     `json:"version"`
	Estimate     float64 `json:"estimate"`
	Probes       int     `json:"probes"` // index probes during Prepare
	WellDesigned bool    `json:"well_designed"`
	Adaptive     bool    `json:"adaptive"` // adaptive chain executor armed
	// Staged marks the plan eligible for morsel-style staged parallel
	// execution: when the evaluator routes it to the parallel engine
	// (workers > 1, estimate over the cutover) the chain runs stage by
	// stage with drift checkpoints instead of as a static tree.
	// Always equal to Adaptive
	// today (both require an armed chain) but recorded separately so
	// the decision shows up in Explain JSON.
	Staged    bool         `json:"staged"`
	JoinOrder []ScanChoice `json:"join_order,omitempty"`
	Joins     []JoinChoice `json:"joins,omitempty"`
}

// Summary renders the plan as indented text for `nsq -stats`.
func (ex *Explain) Summary() string {
	if ex == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan planner=%s version=%d est=%g probes=%d well_designed=%t adaptive=%t staged=%t\n",
		ex.Planner, ex.Version, ex.Estimate, ex.Probes, ex.WellDesigned, ex.Adaptive, ex.Staged)
	for _, s := range ex.JoinOrder {
		fmt.Fprintf(&sb, "  scan %s index=%s est=%g\n", s.Pattern, s.Index, s.Est)
	}
	for _, j := range ex.Joins {
		fmt.Fprintf(&sb, "  %s %s: %s vs %s est=%g\n", j.Op, j.Strategy, j.Left, j.Right, j.Est)
	}
	return sb.String()
}

// IndexFor names the permutation the sorted store scans for a triple
// pattern, from its constant positions (the mirror of the store's
// chooseIndex contract: S or S,P or none → SPO; P or P,O → POS; O or
// S,O → OSP).
func IndexFor(t sparql.TriplePattern) string {
	cbits := 0
	if !t.S.IsVar() {
		cbits |= 1
	}
	if !t.P.IsVar() {
		cbits |= 2
	}
	if !t.O.IsVar() {
		cbits |= 4
	}
	switch cbits {
	case 0b010, 0b110:
		return "POS"
	case 0b100, 0b101:
		return "OSP"
	default: // none, S, S|P, all
		return "SPO"
	}
}

// wellDesigned evaluates the analysis package's notion on the
// fragments where it is defined: well designedness for SPARQL[AOF],
// well-designed unions for SPARQL[AUOF], false elsewhere.  The flag
// marks plans eligible for the cheaper well-designed OPT strategies
// (Mengel & Skritek); routing on it is future work, recording it is
// not.
func wellDesigned(p sparql.Pattern) bool {
	if sparql.InFragment(p, sparql.FragmentAOF) {
		ok, err := analysis.IsWellDesigned(p)
		return err == nil && ok
	}
	if sparql.InFragment(p, sparql.FragmentAUOF) {
		ok, err := analysis.IsWellDesignedUnion(p)
		return err == nil && ok
	}
	return false
}

// buildExplain assembles the plan record and the engine hints for an
// optimized pattern: scan choices in execution order, and a cost-gated
// merge/hash decision for every binary node over two index scans.
func buildExplain(e *estimator, opt sparql.Pattern, po PlannerOptions, adaptive bool) (*Explain, *sparql.EvalHints) {
	ex := &Explain{
		Planner:      po.name(),
		Version:      PlannerVersion,
		Estimate:     e.estimate(opt),
		WellDesigned: wellDesigned(opt),
		Adaptive:     adaptive,
		Staged:       adaptive,
	}
	for _, t := range sparql.TriplePatterns(opt) {
		ex.JoinOrder = append(ex.JoinOrder, ScanChoice{
			Pattern: t.String(),
			Index:   IndexFor(t),
			Est:     e.tripleCount(t),
		})
	}
	hints := &sparql.EvalHints{Join: make(map[string]sparql.JoinStrategy)}
	collectJoins(e, opt, ex, hints)
	ex.Probes = e.Probes()
	if po.Greedy || len(hints.Join) == 0 {
		// The v1 baseline keeps the structural gate (hints off).
		hints = nil
	}
	return ex, hints
}

func collectJoins(e *estimator, p sparql.Pattern, ex *Explain, hints *sparql.EvalHints) {
	switch q := p.(type) {
	case sparql.And, sparql.Opt:
		var l, r sparql.Pattern
		op := "and"
		if a, ok := q.(sparql.And); ok {
			l, r = a.L, a.R
		} else {
			o := q.(sparql.Opt)
			l, r = o.L, o.R
			op = "opt"
		}
		lt, lOK := l.(sparql.TriplePattern)
		rt, rOK := r.(sparql.TriplePattern)
		if lOK && rOK {
			nl, nr := e.tripleCount(lt), e.tripleCount(rt)
			card, _ := joinCard(nl, nr, leafDV(sparql.Vars(lt), nl), leafDV(sparql.Vars(rt), nr))
			strategy := sparql.StrategyHash
			lv, okL := sparql.ScanLeadVar(lt)
			rv, okR := sparql.ScanLeadVar(rt)
			if okL && okR && lv == rv && mergeJoinCost(nl, nr) <= hashJoinCost(nl, nr) {
				strategy = sparql.StrategyMerge
			}
			hints.Join[q.(sparql.Pattern).String()] = strategy
			ex.Joins = append(ex.Joins, JoinChoice{
				Op: op, Left: lt.String(), Right: rt.String(),
				Strategy: strategy.String(), Est: card,
			})
		}
		collectJoins(e, l, ex, hints)
		collectJoins(e, r, ex, hints)
	case sparql.Union:
		collectJoins(e, q.L, ex, hints)
		collectJoins(e, q.R, ex, hints)
	case sparql.Filter:
		collectJoins(e, q.P, ex, hints)
	case sparql.Select:
		collectJoins(e, q.P, ex, hints)
	case sparql.NS:
		collectJoins(e, q.P, ex, hints)
	}
}
