package sparql

import (
	"errors"
	"sort"

	"repro/internal/rdf"
)

// MaxSchemaVars is the widest variable schema the row engine supports:
// the presence bitset of a Row is a single machine word.  The planned
// evaluator sends wider queries to the reference evaluator.
const MaxSchemaVars = 64

// ErrSchemaTooWide is the row engine's refusal of a pattern with more
// than MaxSchemaVars variables.
var ErrSchemaTooWide = errors.New("sparql: pattern has more variables than the row engine supports")

// VarSchema assigns the variables of one query dense slot indices, so
// that a solution mapping can be laid out as a fixed-width row of
// interned IDs instead of a hash map of strings.  A schema is built
// once per query and shared by every RowSet of its evaluation.
type VarSchema struct {
	vars  []Var
	slots map[Var]int
}

// NewVarSchema builds a schema over the given variables (sorted,
// de-duplicated).  It returns ok = false when the variable count
// exceeds MaxSchemaVars.
func NewVarSchema(vars []Var) (*VarSchema, bool) {
	uniq := make([]Var, 0, len(vars))
	seen := make(map[Var]struct{}, len(vars))
	for _, v := range vars {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			uniq = append(uniq, v)
		}
	}
	if len(uniq) > MaxSchemaVars {
		return nil, false
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	sc := &VarSchema{vars: uniq, slots: make(map[Var]int, len(uniq))}
	for i, v := range uniq {
		sc.slots[v] = i
	}
	return sc, true
}

// SchemaFor builds the schema of a pattern from var(P) (including
// FILTER conditions and SELECT lists).  ok = false when the pattern has
// more than MaxSchemaVars variables.
func SchemaFor(p Pattern) (*VarSchema, bool) {
	return NewVarSchema(Vars(p))
}

// Len reports the number of slots.
func (sc *VarSchema) Len() int { return len(sc.vars) }

// Vars returns the schema's variables in slot order.  Callers must not
// modify the slice.
func (sc *VarSchema) Vars() []Var { return sc.vars }

// Slot returns the slot index of v and whether v is in the schema.
func (sc *VarSchema) Slot(v Var) (int, bool) {
	i, ok := sc.slots[v]
	return i, ok
}

// SlotMask returns the presence bitmask covering the given variables;
// variables outside the schema are ignored.
func (sc *VarSchema) SlotMask(vars []Var) uint64 {
	var m uint64
	for _, v := range vars {
		if i, ok := sc.slots[v]; ok {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Codec converts between string mappings and rows over a schema, using
// a dictionary for the variable images.  Conversion happens only at
// query boundaries; the evaluation core stays in ID space.
type Codec struct {
	Schema *VarSchema
	Dict   *rdf.Dict
}

// Encode converts µ to a row, interning IRIs as needed.  ok = false
// when µ binds a variable outside the schema.
func (c Codec) Encode(mu Mapping) (Row, bool) {
	r := Row{IDs: make([]rdf.ID, c.Schema.Len())}
	for v, iri := range mu {
		i, ok := c.Schema.Slot(v)
		if !ok {
			return Row{}, false
		}
		r.IDs[i] = c.Dict.Intern(iri)
		r.Mask |= 1 << uint(i)
	}
	return r, true
}

// EncodeLookup is Encode without interning: ok = false when µ binds a
// variable outside the schema or an IRI outside the dictionary (such a
// mapping cannot be an answer over the dictionary's graph).
func (c Codec) EncodeLookup(mu Mapping) (Row, bool) {
	r := Row{IDs: make([]rdf.ID, c.Schema.Len())}
	for v, iri := range mu {
		i, ok := c.Schema.Slot(v)
		if !ok {
			return Row{}, false
		}
		id, ok := c.Dict.Lookup(iri)
		if !ok {
			return Row{}, false
		}
		r.IDs[i] = id
		r.Mask |= 1 << uint(i)
	}
	return r, true
}

// Decode converts a row back to a string mapping.
func (c Codec) Decode(r Row) Mapping {
	return c.DecodeMasked(r.IDs, r.Mask)
}

// DecodeMasked converts a raw (ids, mask) row to a string mapping.
func (c Codec) DecodeMasked(ids []rdf.ID, mask uint64) Mapping {
	mu := make(Mapping, popcount(mask))
	for m := mask; m != 0; m &= m - 1 {
		i := trailingZeros(m)
		mu[c.Schema.vars[i]] = c.Dict.IRI(ids[i])
	}
	return mu
}
