package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// answer is an order-independent fingerprint of a query answer: the
// row count and the wrapping sum of per-row hashes.  Answers are sets
// (no duplicate rows), so equal sets give equal fingerprints whatever
// order the rows arrive in.
type answer struct {
	Rows int    `json:"rows"`
	Hash uint64 `json:"hash"`
}

func (a answer) String() string { return fmt.Sprintf("%d rows, hash %016x", a.Rows, a.Hash) }

// rowHash hashes one binding row given as variable/value pairs.
func rowHash(pairs [][2]string) uint64 {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	h := fnv.New64a()
	for _, p := range pairs {
		h.Write([]byte(p[0]))
		h.Write([]byte{0})
		h.Write([]byte(p[1]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func answerOfSet(ms *sparql.MappingSet) answer {
	a := answer{Rows: ms.Len()}
	for _, mu := range ms.Mappings() {
		pairs := make([][2]string, 0, len(mu))
		for v, iri := range mu {
			pairs = append(pairs, [2]string{string(v), string(iri)})
		}
		a.Hash += rowHash(pairs)
	}
	return a
}

// answerOfBody fingerprints a SPARQL JSON results document, with every
// value passed through label first.  A coordinator's "partial": true
// answer is an error: it is not the answer to the query.
func answerOfBody(body []byte, label func(string) string) (answer, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, fmt.Errorf("decode results: %w", err)
	}
	if doc.Partial {
		return answer{}, errors.New("partial answer")
	}
	a := answer{Rows: len(doc.Results.Bindings)}
	for _, b := range doc.Results.Bindings {
		pairs := make([][2]string, 0, len(b))
		for v, t := range b {
			pairs = append(pairs, [2]string{v, label(t.Value)})
		}
		a.Hash += rowHash(pairs)
	}
	return a, nil
}

// refEval is the answer oracle: the reference evaluator sparql.Eval's
// bottom-up recursion over string mappings (the paper's semantics),
// with two changes that keep it within a run's time limit and leave
// its answers unchanged.  Joins and left joins use JoinHash and
// LeftJoinHash, which internal/sparql tests equal to Join and
// LeftJoin; and an AND of several operands joins them smallest first,
// preferring an operand that shares a variable with what is joined so
// far (join is associative and commutative on mapping sets).
func refEval(g rdf.Store, p sparql.Pattern) *sparql.MappingSet {
	switch q := p.(type) {
	case sparql.And:
		var sets []*sparql.MappingSet
		for _, operand := range flattenAnd(q, nil) {
			sets = append(sets, refEval(g, operand))
		}
		return joinAll(sets)
	case sparql.Union:
		return refEval(g, q.L).Union(refEval(g, q.R))
	case sparql.Opt:
		return refEval(g, q.L).LeftJoinHash(refEval(g, q.R))
	case sparql.Filter:
		return refEval(g, q.P).Filter(q.Cond)
	case sparql.Select:
		return refEval(g, q.P).Project(q.Vars)
	case sparql.NS:
		return refEval(g, q.P).Maximal()
	default:
		return sparql.Eval(g, p)
	}
}

func flattenAnd(p sparql.Pattern, out []sparql.Pattern) []sparql.Pattern {
	if a, ok := p.(sparql.And); ok {
		return flattenAnd(a.R, flattenAnd(a.L, out))
	}
	return append(out, p)
}

func joinAll(sets []*sparql.MappingSet) *sparql.MappingSet {
	vars := func(s *sparql.MappingSet) map[sparql.Var]bool {
		out := map[sparql.Var]bool{}
		for _, mu := range s.Mappings() {
			for v := range mu {
				out[v] = true
			}
		}
		return out
	}
	pick := func(ok func(int) bool) int {
		best := -1
		for i, s := range sets {
			if s != nil && ok(i) && (best < 0 || s.Len() < sets[best].Len()) {
				best = i
			}
		}
		return best
	}
	first := pick(func(int) bool { return true })
	acc, accVars := sets[first], vars(sets[first])
	sets[first] = nil
	for {
		i := pick(func(i int) bool {
			for v := range vars(sets[i]) {
				if accVars[v] {
					return true
				}
			}
			return false
		})
		if i < 0 {
			i = pick(func(int) bool { return true })
		}
		if i < 0 {
			return acc
		}
		for v := range vars(sets[i]) {
			accVars[v] = true
		}
		acc = acc.JoinHash(sets[i])
		sets[i] = nil
	}
}

// graphDigest is a content hash of a set of triples.
func graphDigest(ts []rdf.Triple) string {
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.NTriples()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// oracle computes reference answers for one graph and caches them on
// disk keyed by graph digest and query text, so runs that meet the
// same graph and query again skip the reference evaluation.  The
// benchmark asks it about the structure seed's own labels, which every
// run seed shares.
type oracle struct {
	path string
	memo map[string]answer
}

func openOracle(dir, digest string) (*oracle, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o := &oracle{path: filepath.Join(dir, digest+".json"), memo: map[string]answer{}}
	data, err := os.ReadFile(o.path)
	if err == nil {
		if err := json.Unmarshal(data, &o.memo); err != nil {
			o.memo = map[string]answer{} // a torn cache file is recomputed
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return o, nil
}

func queryKey(q string) string {
	s := sha256.Sum256([]byte(q))
	return hex.EncodeToString(s[:12])
}

// answers returns the reference answer of every text over g, evaluating
// the uncached ones on one goroutine per CPU, and saves the cache.
func (o *oracle) answers(g rdf.Store, texts []string) (map[string]answer, error) {
	out := make(map[string]answer, len(texts))
	var todo []string
	for _, q := range texts {
		if a, ok := o.memo[queryKey(q)]; ok {
			out[q] = a
		} else if _, dup := out[q]; !dup {
			out[q] = answer{}
			todo = append(todo, q)
		}
	}
	if len(todo) == 0 {
		return out, nil
	}
	got := make([]answer, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				parsed, err := parser.ParseAny("paper", todo[i])
				if err != nil {
					errs[i] = fmt.Errorf("oracle: parse %q: %w", todo[i], err)
					continue
				}
				got[i] = answerOfSet(refEval(g, parsed.Pattern))
			}
		}()
	}
	wg.Wait()
	for i, q := range todo {
		if errs[i] != nil {
			return nil, errs[i]
		}
		o.memo[queryKey(q)] = got[i]
		out[q] = got[i]
	}
	return out, o.save()
}

func (o *oracle) save() error {
	data, err := json.Marshal(o.memo)
	if err != nil {
		return err
	}
	tmp := o.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, o.path)
}

// distinct returns the distinct query texts of ops, in first-seen order.
func distinct(opss ...[]op) []string {
	seen := map[string]bool{}
	var out []string
	for _, ops := range opss {
		for _, o := range ops {
			if !o.insert && !seen[o.query] {
				seen[o.query] = true
				out = append(out, o.query)
			}
		}
	}
	return out
}

// mismatchReport renders up to five mismatches for stderr.
func mismatchReport(bad []string) string {
	if len(bad) > 5 {
		bad = append(bad[:5:5], fmt.Sprintf("... and %d more", len(bad)-5))
	}
	return strings.Join(bad, "\n  ")
}
