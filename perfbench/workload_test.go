package main

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/rdf"
)

// The same seed gives the same inputs; another seed renames every
// entity but keeps the structure: as many triples, the same query
// texts up to entity numbers, and a bijective renaming.
func TestGenerateIsSeededRelabeling(t *testing.T) {
	w, _ := specByName("read-write")
	a, b := generate(w, 1, 2), generate(w, 1, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	c := generate(w, 2, 2)
	if len(c.initial) != len(a.initial) || len(c.open) != len(a.open) {
		t.Fatalf("seed changed the shape: %d/%d triples, %d/%d ops", len(c.initial), len(a.initial), len(c.open), len(a.open))
	}
	numbers := regexp.MustCompile(`_[0-9]+`)
	renamed := 0
	for i := range a.open {
		qa, qc := a.open[i].query, c.open[i].query
		if numbers.ReplaceAllString(qa, "_N") != numbers.ReplaceAllString(qc, "_N") {
			t.Fatalf("op %d differs beyond entity numbers:\n%s\n%s", i, qa, qc)
		}
		if qa != qc {
			renamed++
		}
	}
	if renamed == 0 {
		t.Fatal("seed 2 renamed nothing")
	}
	seen := map[string]string{}
	for i, ta := range a.initial {
		for _, pair := range [][2]string{{string(ta.S), string(c.initial[i].S)}, {string(ta.O), string(c.initial[i].O)}} {
			if prev, ok := seen[pair[0]]; ok && prev != pair[1] {
				t.Fatalf("%s renamed to both %s and %s", pair[0], prev, pair[1])
			}
			seen[pair[0]] = pair[1]
		}
	}
	back := map[string]bool{}
	for _, v := range seen {
		if back[v] {
			t.Fatalf("two entities renamed to %s", v)
		}
		back[v] = true
	}
}

// The fresh stream never meets the plan cache: replaying the server's
// request sequence (warm-up, then each round's open-loop and
// closed-loop passes) through a 256-entry LRU gives no hit after
// warm-up.  The rotation holds the 60/24/10/6 shape mix exactly.
func TestQueryStreams(t *testing.T) {
	w, _ := specByName("opt-ns-fresh")
	for _, seconds := range []int{10, 25, 60} {
		in := generate(w, 3, seconds)
		rounds := w.rounds(seconds)
		if want := rounds * freshChunk; len(in.open) != want || len(in.closed) != rounds*w.ClosedPasses {
			t.Fatalf("%d s: %d open-loop queries and %d closed passes, want %d and %d",
				seconds, len(in.open), len(in.closed), want, rounds*w.ClosedPasses)
		}
		if n := len(distinct(in.warm, in.open)); n != min(rounds+1, freshChunks)*freshChunk {
			t.Fatalf("%d s: %d distinct texts", seconds, n)
		}
		cache := newPlanLRU(planCacheSize)
		for _, o := range in.warm {
			cache.touch(o.query)
		}
		opens := splitPasses(in.open)
		for r := 0; r < rounds; r++ {
			for _, pass := range append([][]op{opens[r]}, in.closed[r*w.ClosedPasses:(r+1)*w.ClosedPasses]...) {
				for _, o := range pass {
					if cache.touch(o.query) {
						t.Fatalf("%d s: round %d hits the plan cache with %s", seconds, r, o.query)
					}
				}
			}
		}
	}

	w, _ = specByName("read-write")
	in := generate(w, 3, 10)
	chains := 0
	for _, o := range in.warm {
		if strings.Contains(o.query, "?x1") {
			chains++
		}
	}
	if len(in.warm) != 200 || chains != 48 {
		t.Fatalf("rotation of %d with %d chains, want 200 with 48", len(in.warm), chains)
	}
	queries := 0
	for _, o := range in.open {
		if !o.insert {
			queries++
		}
	}
	if want := w.rounds(10) * 200; queries != want || len(in.open) != want+w.rounds(10)*chains {
		t.Fatalf("%d open-loop ops with %d queries, want %d passes of 200 queries and %d inserts",
			len(in.open), queries, w.rounds(10), chains)
	}

	w, _ = specByName("cluster-gather")
	in = generate(w, 3, 30)
	if len(in.inserts) != w.rounds(30)*insertPass || len(splitPasses(in.inserts)) != w.rounds(30) {
		t.Fatalf("%d inserts, want %d passes of %d", len(in.inserts), w.rounds(30), insertPass)
	}
}

// A pass split off the open loop keeps its ops in order and is due from
// its own start.
func TestSplitPasses(t *testing.T) {
	w, _ := specByName("read-write")
	in := generate(w, 1, 10)
	passes := splitPasses(in.open)
	if len(passes) != w.rounds(10) {
		t.Fatalf("%d passes, want %d", len(passes), w.rounds(10))
	}
	i := 0
	for p, pass := range passes {
		if pass[0].due != 0 {
			t.Fatalf("pass %d starts at %v", p, pass[0].due)
		}
		for _, o := range pass {
			if o.pass != p || o.query != in.open[i].query || o.insert != in.open[i].insert {
				t.Fatalf("op %d out of place in pass %d", i, p)
			}
			i++
		}
	}
	if i != len(in.open) {
		t.Fatalf("passes hold %d ops, want %d", i, len(in.open))
	}
}

// Answers compared in the structure seed's labels equal answers
// computed over the relabeled inputs: back undoes text, and evaluating
// a relabeled query over the relabeled graph, then mapping every value
// back, gives the canonical answer.
func TestRelabelCommutesWithEvaluation(t *testing.T) {
	for _, name := range []string{"opt-ns-fresh", "read-write"} {
		w, _ := specByName(name)
		in := generate(w, 5, 3)
		rel, canon := rdf.NewGraph(), rdf.NewGraph()
		for _, tr := range in.initial {
			rel.AddTriple(tr)
			canon.AddTriple(in.rl.backTriple(tr))
		}
		rel.Compact()
		canon.Compact()
		texts := distinct(in.open)
		for _, q := range texts[:min(len(texts), 24)] {
			cq := in.rl.back(q)
			if in.rl.text(cq) != q {
				t.Fatalf("%s: back does not undo text: %s -> %s", name, q, cq)
			}
			want := answerOfSet(refEval(canon, mustParse(t, cq).Pattern))
			ms := refEval(rel, mustParse(t, q).Pattern)
			got := answer{Rows: ms.Len()}
			for _, mu := range ms.Mappings() {
				var pairs [][2]string
				for v, val := range mu {
					pairs = append(pairs, [2]string{string(v), in.rl.back(string(val))})
				}
				got.Hash += rowHash(pairs)
			}
			if got != want {
				t.Fatalf("%s: %s: relabeled %v, canonical %v", name, q, got, want)
			}
		}
	}
}

func mustParse(t *testing.T, q string) parser.Parsed {
	t.Helper()
	p, err := parser.ParseAny("paper", q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
