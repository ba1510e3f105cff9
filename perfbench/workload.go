package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/rdf"
	"repro/internal/workload"
)

// spec is one workload: the topology it runs on, the inputs it
// generates and the rates it offers them at.  README.md explains why
// each workload exists and which layer it stresses.
type spec struct {
	Name   string `json:"name"`
	People int    `json:"people"` // social-graph size
	// Cities and Orgs override the generator's defaults (People/80 and
	// People/40) where smaller anchored groups are wanted.
	Cities int `json:"cities,omitempty"`
	Orgs   int `json:"orgs,omitempty"`
	// Shards > 0 runs nscoord over that many nsserve -shard processes.
	Shards int `json:"shards,omitempty"`
	// Durable runs nsserve with -data-dir and -fsync batch.
	Durable bool `json:"durable,omitempty"`
	// Rotation is the number of AND queries in the repeating rotation;
	// 0 selects the fresh OPT/NS stream instead.
	Rotation int `json:"rotation,omitempty"`
	// QueryQPS is the open-loop phase's fixed offered query rate.
	QueryQPS float64 `json:"query_qps"`
	// Mixed interleaves one insert behind every chain query of the
	// open loop.  Otherwise each round ends with an insertPass-sized
	// batch of inserts at InsertQPS, sent to a second, identically
	// loaded topology, so query metrics never see a write.
	Mixed     bool    `json:"mixed,omitempty"`
	InsertQPS float64 `json:"insert_qps,omitempty"`
	// ClosedPasses is how many closed-loop passes over the rotation (or
	// 200-query chunks of the fresh stream) each round makes;
	// throughput_qps is the median pass.  read-write's cached passes
	// last under 0.2 s each, so it makes more of them.
	ClosedPasses int `json:"closed_passes"`
	// RoundSeconds is the wall time of one round (open-loop pass,
	// closed-loop passes, insert pass) on the reference machine; a run
	// of -seconds s makes seconds/RoundSeconds rounds, at least one.
	RoundSeconds float64 `json:"round_seconds"`
}

// specs lists the workloads in BENCHMARK.json order.
var specs = []spec{
	{Name: "opt-ns-fresh", People: 2000, QueryQPS: 100, InsertQPS: 100, ClosedPasses: 1, RoundSeconds: 3},
	{Name: "read-write", People: 1000, Cities: 100, Orgs: 100, Durable: true, Rotation: 200, QueryQPS: 100, Mixed: true, ClosedPasses: 2, RoundSeconds: 2.5},
	{Name: "cluster-gather", People: 100, Shards: 2, Rotation: 100, QueryQPS: 25, InsertQPS: 100, ClosedPasses: 1, RoundSeconds: 6},
}

// rounds is how many rounds a run of the given length makes.
func (w spec) rounds(seconds int) int {
	return max(int(float64(seconds)/w.RoundSeconds+0.5), 1)
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// insertPass is the size of a round's insert pass on the query-only
// workloads: p95 has two samples beyond it in each pass.
const insertPass = 50

// The fresh stream is freshChunks chunks of freshChunk texts, sent in
// turn: round r's open-loop pass sends chunk r mod freshChunks and its
// closed-loop passes replay the chunks two and more further on, and
// set-up warms with the last chunk.  Between two sends of a text come
// at least 400 others, so it has always left the 256-entry plan cache
// and every request parses and plans, while the reference answers stay
// bounded at 1000 texts however long the run.
const (
	freshChunk  = 200
	freshChunks = 5
)

// chaseDelay is how long after its chain query a read-write insert is
// due: long enough for the query to hold the read lock.
const chaseDelay = 2 * time.Millisecond

// op is one request of a phase.
type op struct {
	due     time.Duration // offset from the phase start at which it is due
	pass    int           // which pass of its phase the op belongs to
	insert  bool
	query   string // paper syntax
	body    []byte // N-Triples, inserts only
	triples []rdf.Triple
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	initial []rdf.Triple // the graph loaded during set-up
	warm    []op         // the warm-up pass that ends set-up
	open    []op         // the open-loop passes, due times set
	closed  [][]op       // the closed-loop passes, ClosedPasses per round
	inserts []op         // the insert passes of the query-only workloads
	rl      relabel      // the seed's renaming of every input
}

// structureSeed fixes the shape of every workload: the graph, the query
// rotation or fresh stream and the inserts.  It is the workload
// generator's own default seed.  The run's seed then relabels every
// person, org and city (names and emails follow their person) by a
// random permutation, which changes every byte the servers receive,
// their dictionary IDs and their sort orders, while keeping the work
// each query does.  Query costs are heavy-tailed (one chain answer can
// hold 30k rows), so drawing the structure from the seed would let a
// seed's few largest answers move p99 and throughput by a third; see
// README.md.
const structureSeed = 42

// generate builds a run's inputs.  The same (spec, seed, seconds)
// always yields the same inputs.
func generate(w spec, seed int64, seconds int) inputs {
	s := workload.NewSocial(workload.SocialOpts{People: w.People, Cities: w.Cities, Orgs: w.Orgs, Seed: structureSeed})
	rng := rand.New(rand.NewSource(structureSeed))

	passes := w.rounds(seconds)
	var rot, pool []string
	var chain []bool
	if w.Rotation > 0 {
		rot, chain = andRotation(s, rng, w.Rotation)
	} else {
		pool = newFreshGen(s, rng).take(freshChunks * freshChunk)
	}
	nInserts := passes * insertPass
	if w.Mixed {
		nInserts = 0
		for _, c := range chain {
			if c {
				nInserts += passes
			}
		}
	}
	ins := newInserter(s, rng)
	inserts := make([]op, nInserts)
	for i := range inserts {
		inserts[i] = ins.next()
	}

	rl := newRelabel(rand.New(rand.NewSource(seed)), w.People+nInserts, s.Opts.Orgs, s.Opts.Cities)
	in := inputs{rl: rl}
	for _, t := range s.G.Triples() {
		in.initial = append(in.initial, rl.triple(t))
	}
	for i := range inserts {
		for j, t := range inserts[i].triples {
			inserts[i].triples[j] = rl.triple(t)
		}
		inserts[i].body = ntriples(inserts[i].triples)
	}

	var queries []string
	if w.Rotation > 0 {
		// Whole passes over one stratified rotation, so every run sends
		// the same multiset of queries.
		rot = rl.texts(rot)
		for p := 0; p < passes; p++ {
			queries = append(queries, rot...)
		}
		in.warm = queryOps(rot)
		for p := 0; p < passes*w.ClosedPasses; p++ {
			in.closed = append(in.closed, queryOps(rot))
		}
	} else {
		pool = rl.texts(pool)
		chunk := func(c int) []string {
			c %= freshChunks
			return pool[c*freshChunk : (c+1)*freshChunk]
		}
		in.warm = queryOps(chunk(freshChunks - 1))
		for r := 0; r < passes; r++ {
			queries = append(queries, chunk(r)...)
			for k := 0; k < w.ClosedPasses; k++ {
				in.closed = append(in.closed, queryOps(chunk(r+2+k)))
			}
		}
	}
	passLen := w.Rotation
	if passLen == 0 {
		passLen = freshChunk
	}
	open := queryOps(queries)
	for i := range open {
		open[i].due = rateOffset(i, w.QueryQPS)
		open[i].pass = i / passLen
	}
	if !w.Mixed {
		for i := range inserts {
			inserts[i].due = rateOffset(i, w.InsertQPS)
			inserts[i].pass = i / insertPass
		}
		in.open = open
		in.inserts = inserts
		return in
	}
	// Each insert is due just behind a chain query, so every insert
	// meets a reader holding the lock: the stall this workload measures
	// happens at a fixed rate, not by chance.
	k := 0
	for i := range open {
		if chain[i%len(chain)] {
			inserts[k].due = open[i].due + chaseDelay
			inserts[k].pass = open[i].pass
			k++
		}
	}
	in.open = mergeByDue(open, inserts)
	return in
}

// relabel is a seed-drawn renaming of the graph's entities, and its
// inverse.
type relabel struct {
	perm, inv map[string][]int // IRI prefix ("person", "org", ...) -> permutation
}

var entityIRI = regexp.MustCompile(`\b(person|name|email|org|city)_([0-9]+)\b`)

func newRelabel(rng *rand.Rand, people, orgs, cities int) relabel {
	pp := rng.Perm(people)
	r := relabel{perm: map[string][]int{
		"person": pp, "name": pp, "email": pp,
		"org": rng.Perm(orgs), "city": rng.Perm(cities),
	}, inv: map[string][]int{}}
	for kind, p := range r.perm {
		inv := make([]int, len(p))
		for i, j := range p {
			inv[j] = i
		}
		r.inv[kind] = inv
	}
	return r
}

func (r relabel) text(s string) string { return rename(s, r.perm) }

// back undoes text: it maps a relabeled string to the structure seed's
// own labels.
func (r relabel) back(s string) string { return rename(s, r.inv) }

func rename(s string, perm map[string][]int) string {
	return entityIRI.ReplaceAllStringFunc(s, func(m string) string {
		kind, num, _ := strings.Cut(m, "_")
		i, err := strconv.Atoi(num)
		if p := perm[kind]; err == nil && i < len(p) {
			return kind + "_" + strconv.Itoa(p[i])
		}
		return m
	})
}

func (r relabel) texts(qs []string) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = r.text(q)
	}
	return out
}

func (r relabel) triple(t rdf.Triple) rdf.Triple {
	return rdf.Triple{S: rdf.IRI(r.text(string(t.S))), P: t.P, O: rdf.IRI(r.text(string(t.O)))}
}

func (r relabel) backTriple(t rdf.Triple) rdf.Triple {
	return rdf.Triple{S: rdf.IRI(r.back(string(t.S))), P: t.P, O: rdf.IRI(r.back(string(t.O)))}
}

func rateOffset(i int, qps float64) time.Duration {
	return time.Duration(float64(i) / qps * float64(time.Second))
}

func queryOps(texts []string) []op {
	out := make([]op, len(texts))
	for i, t := range texts {
		out[i] = op{query: t}
	}
	return out
}

// mergeByDue merges two due-ordered schedules into one.
func mergeByDue(a, b []op) []op {
	out := make([]op, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i].due <= b[j].due) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// andRotation draws n AND queries in the 60/24/10/6 star/chain/tree/
// flower mix of internal/workload, stratified: each shape gets its
// exact share, star arm counts and chain variants (2 or 3 hops, with
// or without the sparse mentors hop, anchored by a city or an org) are
// spread evenly, and chains are drawn by rejection from the generator
// itself.  The order is shuffled.
func andRotation(s *workload.Social, rng *rand.Rand, n int) (texts []string, chain []bool) {
	stars, chains, trees := n*60/100, n*24/100, n*10/100
	flowers := n - stars - chains - trees
	var out []string
	for i := 0; i < stars; i++ {
		out = append(out, s.StarQuery(rng, 3+i%3).String())
	}
	for i := 0; i < chains; i++ {
		hops := 2 + i%2
		mentors := (i/2)%2 == 1
		anchor := string(workload.PredLivesIn)
		if (i/4)%2 == 1 {
			anchor = string(workload.PredWorksAt)
		}
		for {
			q := s.ChainQuery(rng, hops).String()
			if strings.Contains(q, string(workload.PredMentors)) == mentors && strings.Contains(q, anchor) {
				out = append(out, q)
				break
			}
		}
	}
	for i := 0; i < trees; i++ {
		out = append(out, s.TreeQuery(rng).String())
	}
	for i := 0; i < flowers; i++ {
		out = append(out, s.FlowerQuery(rng).String())
	}
	isChain := make([]bool, len(out))
	for i := stars; i < stars+chains; i++ {
		isChain[i] = true
	}
	// Interleave the shapes, so no stretch of the schedule is all
	// chains.
	rng.Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
		isChain[i], isChain[j] = isChain[j], isChain[i]
	})
	return out, isChain
}

// freshGen draws OPT/NS/UNION/FILTER/SELECT queries over the optional
// email (25% of people) and mentors (1%) attributes, never drawing a
// text twice.  Templates cycle in a fixed order so every run holds the same
// share of each; constants are random.
type freshGen struct {
	s    *workload.Social
	rng  *rand.Rand
	seen map[string]bool
	i    int
}

func newFreshGen(s *workload.Social, rng *rand.Rand) *freshGen {
	return &freshGen{s: s, rng: rng, seen: map[string]bool{}}
}

// freshTemplates are the query shapes of the fresh stream.  %[1]s is
// a city, %[2]s an org, %[3]s a person and %[4]s a celebrity; every
// template names a person, so texts rarely collide.
var freshTemplates = []string{
	// 0: OPT star: people of a city with their org, email if any.
	`((((?x livesIn %[1]s) AND (?x worksAt ?o)) OPT (?x email ?e)) FILTER (?x != %[3]s))`,
	// 1: NS over nested OPT: the paper's maximal-answers operator.
	`NS(((((?x worksAt %[2]s) OPT (?x email ?e)) OPT (?x mentors ?m)) FILTER (?x != %[3]s)))`,
	// 2: UNION of two anchored stars with different optional arms.
	`((((?x livesIn %[1]s) AND (?x email ?e)) UNION ((?x worksAt %[2]s) AND (?x name ?n))) FILTER (?x != %[3]s))`,
	// 3: SELECT over OPT with a bound() filter: followers of a person
	// who have no email.
	`SELECT {?x} WHERE (((?x follows %[3]s) OPT (?x email ?e)) FILTER (!BOUND(?e)))`,
	// 4: NS over UNION: subsumed answers of one branch drop out.
	`NS(((?x knows %[3]s) OPT (?x email ?e)) UNION ((?x knows %[3]s) AND (?x livesIn %[1]s)))`,
	// 5: SELECT over an OPT whose optional side hangs off the join.
	`SELECT {?x, ?y} WHERE ((((?x worksAt %[2]s) AND (?x knows ?y)) OPT (?y email ?e)) FILTER (?y != %[3]s))`,
	// 6: NS over an OPT anchored at a celebrity's followers.
	`NS((((?x follows %[4]s) AND (?x worksAt %[2]s)) OPT (?x email ?e)) FILTER (?x != %[3]s))`,
	// 7: large: every follow edge into a celebrity, email if any —
	// thousands of rows, dominated by decode, sort and JSON encode.
	`((((?x follows ?y) AND (?y type Celebrity)) OPT (?x email ?e)) FILTER (?y != %[3]s))`,
}

// freshCycle is the template order; the large template is one slot
// in twenty.
var freshCycle = []int{0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 4, 5, 7}

func (f *freshGen) take(n int) []string {
	out := make([]string, 0, n)
	for redraws := 0; len(out) < n; {
		t := freshTemplates[freshCycle[f.i%len(freshCycle)]]
		o := f.s.Opts
		q := fmt.Sprintf(t, f.s.City(f.rng.Intn(o.Cities)), f.s.Org(f.rng.Intn(o.Orgs)),
			f.s.Person(f.rng.Intn(o.People)), f.s.Person(f.rng.Intn(o.Celebrities)))
		if f.seen[q] {
			if redraws++; redraws > 1000 {
				panic("perfbench: fresh query templates ran out of distinct texts")
			}
			continue // redraw the constants for this slot
		}
		redraws = 0
		f.seen[q] = true
		f.i++
		out = append(out, q)
	}
	return out
}

// inserter makes /insert batches: each adds one new person wired into
// the existing graph the way the generator wires its own (type, name, org,
// city, an email for a quarter of them, three knows and six zipf-skewed
// follows edges) plus two follows edges into the newcomer, about 17
// triples a batch.
type inserter struct {
	s      *workload.Social
	rng    *rand.Rand
	zipf   *rand.Zipf
	nextID int
}

func newInserter(s *workload.Social, rng *rand.Rand) *inserter {
	return &inserter{s: s, rng: rng, zipf: rand.NewZipf(rng, 1.4, 1, uint64(s.Opts.People-1)), nextID: s.Opts.People}
}

func (in *inserter) next() op {
	var ts []rdf.Triple
	add := func(s, p, o rdf.IRI) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	o := in.s.Opts
	{
		id := in.nextID
		in.nextID++
		p := in.s.Person(id)
		add(p, workload.PredType, workload.ClassPerson)
		add(p, workload.PredName, rdf.IRI(fmt.Sprintf("name_%d", id)))
		add(p, workload.PredWorksAt, in.s.Org(in.rng.Intn(o.Orgs)))
		add(p, workload.PredLivesIn, in.s.City(in.rng.Intn(o.Cities)))
		if in.rng.Intn(100) < o.EmailPercent {
			add(p, workload.PredEmail, rdf.IRI(fmt.Sprintf("email_%d", id)))
		}
		for j := 0; j < o.KnowsPerPerson; j++ {
			add(p, workload.PredKnows, in.s.Person(in.rng.Intn(o.People)))
		}
		for j := 0; j < o.FollowsPerPerson; j++ {
			add(p, workload.PredFollows, in.s.Person(int(in.zipf.Uint64())))
		}
		for j := 0; j < 2; j++ {
			add(in.s.Person(in.rng.Intn(o.People)), workload.PredFollows, p)
		}
	}
	return op{insert: true, triples: ts}
}

func ntriples(ts []rdf.Triple) []byte {
	var b bytes.Buffer
	for _, t := range ts {
		b.WriteString(t.NTriples())
		b.WriteByte('\n')
	}
	return b.Bytes()
}
