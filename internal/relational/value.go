// Package relational implements an embedded mini relational database engine:
// a SQL dialect (lexer, parser), a catalog, row storage with hash and ordered
// secondary indexes, a heuristic planner that exploits indexes, and a
// volcano-style iterator executor.
//
// In the blueprint architecture this engine plays the role of the
// enterprise's relational databases (the JOBS table of §II and Fig. 7): the
// NL2Q agent compiles natural-language queries to this SQL dialect and the
// SQLExecutor agent runs them. The data planner reads its catalog and index
// inventory through the data registry to produce optimized data plans.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates column types.
type Type int

const (
	// TNull is the type of the NULL literal.
	TNull Type = iota
	// TInt is a 64-bit signed integer.
	TInt
	// TFloat is a 64-bit float.
	TFloat
	// TString is a UTF-8 string.
	TString
	// TBool is a boolean.
	TBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOL"
	case TNull:
		return "NULL"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Value is a single typed cell. The zero Value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
	B bool
}

// Null is the NULL value.
var Null = Value{T: TNull}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{T: TInt, I: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{T: TFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{T: TString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{T: TBool, B: b} }

// FromGo converts a Go value (as produced by JSON decoding or user code)
// into a Value. Unsupported types become their string rendering.
func FromGo(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null
	case Value:
		return x
	case int:
		return NewInt(int64(x))
	case int64:
		return NewInt(x)
	case float64:
		return NewFloat(x)
	case float32:
		return NewFloat(float64(x))
	case string:
		return NewString(x)
	case bool:
		return NewBool(x)
	default:
		return NewString(fmt.Sprintf("%v", x))
	}
}

// Go converts the value to its natural Go representation.
func (v Value) Go() any {
	switch v.T {
	case TInt:
		return v.I
	case TFloat:
		return v.F
	case TString:
		return v.S
	case TBool:
		return v.B
	default:
		return nil
	}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// String renders the value for display.
func (v Value) String() string {
	switch v.T {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "NULL"
	}
}

// numeric returns the value as float64 and whether it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.T {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything;
// numeric types compare numerically across int/float; mixed non-numeric
// types compare by their string rendering (a pragmatic total order so
// ORDER BY never fails).
func Compare(a, b Value) int {
	// Same-type fast paths first: filters compare a typed column against a
	// literal of the same type on every candidate row.
	if a.T == b.T {
		switch a.T {
		case TInt:
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		case TString:
			return strings.Compare(a.S, b.S)
		}
	}
	if a.IsNull() && b.IsNull() {
		return 0
	}
	if a.IsNull() {
		return -1
	}
	if b.IsNull() {
		return 1
	}
	if af, ok := a.numeric(); ok {
		if bf, ok2 := b.numeric(); ok2 {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	if a.T == TString && b.T == TString {
		return strings.Compare(a.S, b.S)
	}
	if a.T == TBool && b.T == TBool {
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Equal reports whether two values compare equal (NULL != NULL, per SQL;
// use Compare for ordering semantics where NULLs group together).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a string usable as a hash-index key. NULLs share a key but are
// never matched by equality lookups (the index skips them).
func (v Value) Key() string {
	switch v.T {
	case TInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case TFloat:
		// Integral floats share keys with ints so 3 = 3.0 lookups work.
		if v.F == float64(int64(v.F)) {
			return "i:" + strconv.FormatInt(int64(v.F), 10)
		}
		return "f:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return "s:" + v.S
	case TBool:
		if v.B {
			return "b:1"
		}
		return "b:0"
	default:
		return "null"
	}
}

// Row is a tuple of values.
type Row []Value
