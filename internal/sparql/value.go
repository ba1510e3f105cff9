// Package sparql implements the SPARQL graph-pattern algebra of
// Arenas & Ugarte, "Designing a Query Language for RDF: Marrying Open
// and Closed Worlds" (PODS 2016): mappings and the mapping algebra
// (Section 2), graph patterns with AND, UNION, OPT, FILTER and SELECT,
// the not-subsumed operator NS (Section 5.1), CONSTRUCT queries
// (Section 6), and two evaluators for all of them:
//
//   - Eval (and its governed twin EvalBudget) is the reference
//     evaluator over string mappings, a direct transcription of the
//     semantics.  It is the oracle every engine configuration is
//     differentially tested against, and it evaluates the rare
//     patterns wider than MaxSchemaVars.
//   - EvalRows is the production row engine over dictionary-encoded
//     rows, serial or parallel (ParOptions.Workers).  The planner
//     (internal/plan) drives it; callers outside the engine reach it
//     through plan.EvalPrepared or exec.EvalCompiled.
package sparql

import (
	"strings"
	"unicode"

	"repro/internal/rdf"
)

// Var is a SPARQL variable.  The name is stored without the leading
// '?'; String adds it back.
type Var string

// String renders the variable in SPARQL notation, e.g. "?X".
func (v Var) String() string { return "?" + string(v) }

// Value is a position of a triple pattern: either a variable or an IRI.
// The zero Value is the empty IRI.
type Value struct {
	vr    Var
	iri   rdf.IRI
	isVar bool
}

// V returns a variable Value.
func V(name Var) Value { return Value{vr: name, isVar: true} }

// I returns an IRI Value.
func I(iri rdf.IRI) Value { return Value{iri: iri} }

// IsVar reports whether the value is a variable.
func (v Value) IsVar() bool { return v.isVar }

// Var returns the variable; it panics if the value is an IRI.
func (v Value) Var() Var {
	if !v.isVar {
		panic("sparql: Var() on IRI value " + string(v.iri))
	}
	return v.vr
}

// IRI returns the IRI; it panics if the value is a variable.
func (v Value) IRI() rdf.IRI {
	if v.isVar {
		panic("sparql: IRI() on variable value " + v.vr.String())
	}
	return v.iri
}

// String renders the value in SPARQL notation.  IRIs that would not
// survive re-parsing as a bare word (reserved characters, keywords,
// empty string) are wrapped in angle brackets.
func (v Value) String() string {
	if v.isVar {
		return v.vr.String()
	}
	if BareIRISafe(v.iri) {
		return string(v.iri)
	}
	return v.iri.NTriples()
}

// reservedWords are the keywords of the concrete syntax; they cannot be
// written as bare IRIs (use <...> instead).
var reservedWords = map[string]bool{
	"AND": true, "UNION": true, "OPT": true, "OPTIONAL": true,
	"FILTER": true, "SELECT": true, "WHERE": true, "NS": true,
	"CONSTRUCT": true, "BOUND": true, "TRUE": true, "FALSE": true,
	"MINUS": true,
}

// BareIRISafe reports whether iri can be printed as a bare word and
// re-parsed unambiguously by the parser package.
func BareIRISafe(iri rdf.IRI) bool {
	s := string(iri)
	if s == "" || reservedWords[strings.ToUpper(s)] {
		return false
	}
	for _, r := range s {
		switch r {
		case '(', ')', '{', '}', ',', '<', '>', '?', '=', '!', '&', '|', '#':
			return false
		}
		if unicode.IsSpace(r) { // the lexer splits words at any Unicode space
			return false
		}
	}
	return true
}

// Resolve returns µ(v): the IRI itself for an IRI value, and the image
// under µ for a variable value.  ok is false if the variable is not in
// dom(µ).
func (v Value) Resolve(mu Mapping) (rdf.IRI, bool) {
	if !v.isVar {
		return v.iri, true
	}
	iri, ok := mu[v.vr]
	return iri, ok
}
