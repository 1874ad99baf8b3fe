package relational

import (
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []ColumnRef
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int
	Explain  bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// CreateTableStmt is CREATE TABLE t (col TYPE, ...).
type CreateTableStmt struct {
	Table   string
	Columns []Column
}

// CreateIndexStmt is CREATE [ORDERED] INDEX name ON t (col).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Column  string
	Ordered bool
}

// DropTableStmt is DROP TABLE t.
type DropTableStmt struct{ Table string }

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the effective name (alias if present).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is INNER/LEFT JOIN t ON a = b (equijoin only).
type JoinClause struct {
	Left  bool // LEFT OUTER join if true, else inner
	Table TableRef
	LCol  ColumnRef
	RCol  ColumnRef
}

// SelectItem is one projection: expression (possibly aggregate) with alias,
// or the star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is any scalar or aggregate expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// Param is a parameter slot (1-based ordinal assigned by parser). Ordinal
// indexes the unified per-execution value vector, which interleaves explicit
// '?' placeholders with literals auto-extracted by the fingerprint pass. For
// explicit placeholders Src is the user-visible 1-based '?' ordinal (used in
// error messages); for auto-extracted literals Auto is true and Src is 0.
type Param struct {
	Ordinal int
	Src     int
	Auto    bool
}

// ColumnRef references table.column or column.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference.
func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// BinaryExpr applies Op to L and R. Ops: = != < <= > >= AND OR LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT.
type UnaryExpr struct {
	Op string // "NOT"
	E  Expr
}

// InExpr is "E IN (list)" or "E NOT IN (list)".
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is "E BETWEEN lo AND hi".
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
	Not    bool
}

// IsNullExpr is "E IS [NOT] NULL".
type IsNullExpr struct {
	E   Expr
	Not bool
}

// AggExpr is an aggregate call: COUNT(*), COUNT(col), SUM/AVG/MIN/MAX(col).
type AggExpr struct {
	Fn       string // upper case
	Star     bool
	Arg      Expr
	Distinct bool
}

func (*Literal) expr()     {}
func (*Param) expr()       {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
func (*AggExpr) expr()     {}

// exprString renders an expression for EXPLAIN output and error messages.
func exprString(e Expr) string { return exprDisplay(e, nil) }

// exprDisplay renders an expression with bound parameter values: an
// auto-extracted literal slot shows the value it was extracted from, so a
// shape-cached statement's EXPLAIN/plan strings match the exact-keyed form
// byte for byte. Explicit '?' placeholders always render as "?".
func exprDisplay(e Expr, params []Value) string {
	var b strings.Builder
	writeExprDisplay(&b, e, params)
	return b.String()
}

// writeValueDisplay appends a bound value's display form without the
// intermediate string Value.String would allocate for numbers.
func writeValueDisplay(b *strings.Builder, v Value) {
	switch v.T {
	case TInt:
		var buf [24]byte
		b.Write(strconv.AppendInt(buf[:0], v.I, 10))
	case TFloat:
		var buf [32]byte
		b.Write(strconv.AppendFloat(buf[:0], v.F, 'g', -1, 64))
	default:
		b.WriteString(v.String())
	}
}

// writeExprDisplay appends the display form in one pass over the tree so the
// per-execution Filter(...) plan line costs a single buffer instead of a
// string per node — this runs on every query, shape-cached or not.
func writeExprDisplay(b *strings.Builder, e Expr, params []Value) {
	switch x := e.(type) {
	case nil:
	case *Literal:
		if x.Val.T == TString {
			b.WriteByte('\'')
			b.WriteString(x.Val.S)
			b.WriteByte('\'')
			return
		}
		writeValueDisplay(b, x.Val)
	case *Param:
		if x.Auto && x.Ordinal-1 >= 0 && x.Ordinal-1 < len(params) {
			v := params[x.Ordinal-1]
			if v.T == TString {
				b.WriteByte('\'')
				b.WriteString(v.S)
				b.WriteByte('\'')
				return
			}
			writeValueDisplay(b, v)
			return
		}
		b.WriteByte('?')
	case *ColumnRef:
		b.WriteString(x.String())
	case *BinaryExpr:
		b.WriteByte('(')
		writeExprDisplay(b, x.L, params)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		writeExprDisplay(b, x.R, params)
		b.WriteByte(')')
	case *UnaryExpr:
		b.WriteString("(NOT ")
		writeExprDisplay(b, x.E, params)
		b.WriteByte(')')
	case *InExpr:
		writeExprDisplay(b, x.E, params)
		if x.Not {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		for i, it := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExprDisplay(b, it, params)
		}
		b.WriteByte(')')
	case *BetweenExpr:
		writeExprDisplay(b, x.E, params)
		if x.Not {
			b.WriteString(" NOT BETWEEN ")
		} else {
			b.WriteString(" BETWEEN ")
		}
		writeExprDisplay(b, x.Lo, params)
		b.WriteString(" AND ")
		writeExprDisplay(b, x.Hi, params)
	case *IsNullExpr:
		writeExprDisplay(b, x.E, params)
		if x.Not {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *AggExpr:
		b.WriteString(x.Fn)
		if x.Star {
			b.WriteString("(*)")
			return
		}
		b.WriteByte('(')
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		writeExprDisplay(b, x.Arg, params)
		b.WriteByte(')')
	default:
		b.WriteString("?expr?")
	}
}

// anyExpr reports whether pred holds for e or any expression nested in
// it, visiting in source order and stopping at the first hit — the one
// walk behind every structural question the engine asks of a tree.
func anyExpr(e Expr, pred func(Expr) bool) bool {
	if e == nil {
		return false
	}
	if pred(e) {
		return true
	}
	switch x := e.(type) {
	case *BinaryExpr:
		return anyExpr(x.L, pred) || anyExpr(x.R, pred)
	case *UnaryExpr:
		return anyExpr(x.E, pred)
	case *InExpr:
		if anyExpr(x.E, pred) {
			return true
		}
		for _, it := range x.List {
			if anyExpr(it, pred) {
				return true
			}
		}
	case *BetweenExpr:
		return anyExpr(x.E, pred) || anyExpr(x.Lo, pred) || anyExpr(x.Hi, pred)
	case *IsNullExpr:
		return anyExpr(x.E, pred)
	case *AggExpr:
		return anyExpr(x.Arg, pred)
	}
	return false
}

// hasAutoParam reports whether the expression tree contains an
// auto-extracted literal parameter (its display depends on bound values).
func hasAutoParam(e Expr) bool {
	return anyExpr(e, func(x Expr) bool {
		p, ok := x.(*Param)
		return ok && p.Auto
	})
}

// hasAggregate reports whether the expression tree contains an aggregate.
func hasAggregate(e Expr) bool {
	return anyExpr(e, func(x Expr) bool {
		_, ok := x.(*AggExpr)
		return ok
	})
}
