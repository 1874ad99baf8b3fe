package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"blueprint/internal/topk"
)

// This file implements the prepare-time compiler for SELECT/UPDATE/DELETE,
// the engine's only executor for those statements.
//
// compileStmt does the per-statement work exactly once per (statement,
// schema) pair: each ColumnRef is resolved to a positional offset and the
// expression tree is lowered into a closure of type compiledExpr, so
// per-row evaluation touches no strings and no type switches. Compiled
// plans are cached on *Stmt handles and in the statement cache (see
// planSlot in stmt.go) and invalidated per table by a schema version
// counter bumped on CREATE/DROP TABLE.
//
// Compilation is total. A statement that names a missing table or fails a
// static check compiles to a program holding the error; a reference that
// does not resolve compiles to a closure raising the resolution error
// lazily, on the rows that evaluate it, so a query over zero rows still
// succeeds. The interpreted evaluator in oracle_test.go defines these
// semantics: the differential tests in differential_test.go assert both
// executors agree on columns, rows, plans and error text.

// compiledExpr evaluates one scalar expression against a row with all column
// references pre-resolved to positional offsets.
type compiledExpr func(row Row, params []Value) (Value, error)

// compiledAggExpr evaluates an expression that may contain aggregates over
// the rows of one group.
type compiledAggExpr func(rows []Row, params []Value) (Value, error)

// tableDep records the schema version of one referenced table at compile
// time. Versions bump on CREATE/DROP TABLE, so a dependency mismatch means
// the table was dropped or recreated and every resolved offset is suspect.
type tableDep struct {
	table string // lowercased storage key
	ver   uint64
}

// compiledStmt is one compilation of a statement against the catalog
// recorded in deps and restores: a runnable program, or the static error
// the statement raises against that schema (missing table, unknown SET
// target, ...).
type compiledStmt struct {
	deps     []tableDep
	restores uint64
	sel      *selectProgram
	upd      *updateProgram
	del      *deleteProgram
	err      error
}

// planSlot holds the current compilation of one statement. A slot is shared
// between a prepared *Stmt handle and the statement-cache entry for the same
// SQL text, so Query/Exec traffic and prepared handles reuse one compiled
// plan. Swaps are atomic: concurrent executors either see the old (still
// version-checked) plan or the new one.
type planSlot struct {
	p atomic.Pointer[compiledStmt]
}

// depsValid reports whether the catalog and every table version recorded
// at compile time are still current.
func (db *DB) depsValid(cs *compiledStmt) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.restores != cs.restores {
		return false
	}
	for _, d := range cs.deps {
		if db.vers[d.table] != d.ver {
			return false
		}
	}
	return true
}

// captureDeps records the catalog and the schema versions of the given
// (lowercased) tables.
func (db *DB) captureDeps(cs *compiledStmt, tables []string) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cs.restores = db.restores
	cs.deps = make([]tableDep, len(tables))
	for i, t := range tables {
		cs.deps[i] = tableDep{table: t, ver: db.vers[t]}
	}
}

// planFor returns the slot's current compilation, recompiling if absent or
// stale, and the static error it carries. Racing recompiles are harmless:
// both results are valid and the last store wins.
//
// Programs hold the *table objects they resolved. The versions in deps are
// captured before those lookups, so a compilation whose deps still match
// refers to the live tables. DDL that lands after this check cannot tear
// the execution: like any reader that fetched a table before a concurrent
// DROP, it finishes against the table it resolved, whose layout matches
// every compiled offset. No execution is ever retried.
func (db *DB) planFor(st Statement, slot *planSlot) (*compiledStmt, error) {
	cs := slot.p.Load()
	if cs == nil || !db.depsValid(cs) {
		cs = db.compileStmt(st)
		slot.p.Store(cs)
	}
	return cs, cs.err
}

// compileStmt compiles a SELECT, UPDATE or DELETE against the current
// schema. deps are captured before any table is looked up (see planFor).
func (db *DB) compileStmt(st Statement) *compiledStmt {
	db.compiles.Add(1)
	cs := &compiledStmt{}
	db.captureDeps(cs, stmtTables(st))
	switch s := st.(type) {
	case *SelectStmt:
		cs.sel, cs.err = db.buildSelectProgram(s)
	case *UpdateStmt:
		cs.upd, cs.err = db.buildUpdateProgram(s)
	case *DeleteStmt:
		cs.del, cs.err = db.buildDeleteProgram(s)
	}
	return cs
}

// ---- expression compilation ----

// resolveCol resolves a column reference against an ordered column layout —
// the single resolution routine shared by the compiler (once per
// statement) and the interpreted oracle (per row).
func resolveCol(cols []envCol, c *ColumnRef) (int, error) {
	tbl := strings.ToLower(c.Table)
	col := strings.ToLower(c.Column)
	found := -1
	for i, ec := range cols {
		if ec.name != col {
			continue
		}
		if tbl != "" && ec.table != tbl {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("relational: ambiguous column %q", c.String())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: %s", ErrColumnUnknown, c.String())
	}
	return found, nil
}

// failExpr returns a closure that raises err on every evaluation.
func failExpr(err error) compiledExpr {
	return func(Row, []Value) (Value, error) { return Null, err }
}

// compileExpr lowers a scalar expression into a closure over the given
// column layout. It never fails: every error the interpreted evaluator
// raises per row (unresolvable or ambiguous columns, missing parameters,
// aggregate misuse) is lowered into a closure that raises it lazily, so a
// query over zero rows still succeeds.
func compileExpr(cols []envCol, x Expr) compiledExpr {
	switch v := x.(type) {
	case *Literal:
		val := v.Val
		return func(Row, []Value) (Value, error) { return val, nil }
	case *Param:
		ord := v.Ordinal
		disp := paramSrc(v)
		return func(_ Row, params []Value) (Value, error) {
			if ord-1 >= len(params) || params[ord-1].T == missingParamType {
				return Null, fmt.Errorf("relational: missing parameter %d", disp)
			}
			return params[ord-1], nil
		}
	case *ColumnRef:
		i, err := resolveCol(cols, v)
		if err != nil {
			return failExpr(err)
		}
		return func(row Row, _ []Value) (Value, error) { return row[i], nil }
	case *BinaryExpr:
		return compileBinary(cols, v)
	case *UnaryExpr:
		inner := compileExpr(cols, v.E)
		return func(row Row, params []Value) (Value, error) {
			val, err := inner(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}
	case *InExpr:
		e := compileExpr(cols, v.E)
		items := make([]compiledExpr, len(v.List))
		for i, item := range v.List {
			items[i] = compileExpr(cols, item)
		}
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			hit := false
			for _, item := range items {
				iv, err := item(row, params)
				if err != nil {
					return Null, err
				}
				if Equal(val, iv) {
					hit = true
					break
				}
			}
			return NewBool(hit != not), nil
		}
	case *BetweenExpr:
		e := compileExpr(cols, v.E)
		lo := compileExpr(cols, v.Lo)
		hi := compileExpr(cols, v.Hi)
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			loV, err := lo(row, params)
			if err != nil {
				return Null, err
			}
			hiV, err := hi(row, params)
			if err != nil {
				return Null, err
			}
			in := !val.IsNull() && !loV.IsNull() && !hiV.IsNull() &&
				Compare(val, loV) >= 0 && Compare(val, hiV) <= 0
			return NewBool(in != not), nil
		}
	case *IsNullExpr:
		e := compileExpr(cols, v.E)
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(val.IsNull() != not), nil
		}
	case *AggExpr:
		return failExpr(errors.New("relational: aggregate outside aggregation context"))
	default:
		return failExpr(errors.New("relational: unsupported expression"))
	}
}

// resolvable reports whether every column reference in x resolves against
// cols, i.e. whether compileExpr lowered no reference into a lazy error.
func resolvable(cols []envCol, x Expr) bool {
	return !anyExpr(x, func(e Expr) bool {
		c, ok := e.(*ColumnRef)
		if !ok {
			return false
		}
		_, err := resolveCol(cols, c)
		return err != nil
	})
}

// compileConjuncts compiles the conjunct list of a left-deep AND chain in
// source order.
func compileConjuncts(cols []envCol, v *BinaryExpr) []compiledExpr {
	var out []compiledExpr
	if lb, ok := v.L.(*BinaryExpr); ok && lb.Op == "AND" {
		out = compileConjuncts(cols, lb)
	} else {
		out = append(out, compileExpr(cols, v.L))
	}
	return append(out, compileExpr(cols, v.R))
}

func compileBinary(cols []envCol, v *BinaryExpr) compiledExpr {
	l := compileExpr(cols, v.L)
	r := compileExpr(cols, v.R)
	switch v.Op {
	case "AND":
		// Conjunct chains (the normal WHERE form) flatten into one closure
		// that loops a list, instead of one nested frame per AND node.
		conjuncts := []compiledExpr{l, r}
		if lb, ok := v.L.(*BinaryExpr); ok && lb.Op == "AND" {
			conjuncts = append(compileConjuncts(cols, lb), r)
		}
		return func(row Row, params []Value) (Value, error) {
			for _, c := range conjuncts {
				v, err := c(row, params)
				if err != nil {
					return Null, err
				}
				if !truthy(v) {
					return NewBool(false), nil
				}
			}
			return NewBool(true), nil
		}
	case "OR":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			if truthy(lv) {
				return NewBool(true), nil
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(truthy(rv)), nil
		}
	}
	// Comparisons dispatch on the operator once at compile time instead of
	// re-switching on the op string for every row.
	switch v.Op {
	case "=":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(Equal(lv, rv)), nil
		}
	case "!=":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return NewBool(false), nil
			}
			return NewBool(Compare(lv, rv) != 0), nil
		}
	case "<", "<=", ">", ">=":
		var test func(c int) bool
		switch v.Op {
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return NewBool(false), nil
			}
			return NewBool(test(Compare(lv, rv))), nil
		}
	}
	op := v.Op
	return func(row Row, params []Value) (Value, error) {
		lv, err := l(row, params)
		if err != nil {
			return Null, err
		}
		rv, err := r(row, params)
		if err != nil {
			return Null, err
		}
		return compareValues(op, lv, rv)
	}
}

// compareValues applies a non-logical binary operator to two evaluated
// values — the generic tail of the compiled closures, shared with the
// interpreted oracle.
func compareValues(op string, l, r Value) (Value, error) {
	switch op {
	case "=":
		return NewBool(Equal(l, r)), nil
	case "!=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		return NewBool(Compare(l, r) != 0), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		c := Compare(l, r)
		switch op {
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		default:
			return NewBool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		return NewBool(likeMatch(l.String(), r.String())), nil
	default:
		return Null, fmt.Errorf("relational: unknown operator %q", op)
	}
}

// applyBinaryValues applies any binary operator to two already-evaluated
// values. In aggregate context both sides are computed before combining
// (no short-circuit).
func applyBinaryValues(op string, l, r Value) (Value, error) {
	switch op {
	case "AND":
		if !truthy(l) {
			return NewBool(false), nil
		}
		return NewBool(truthy(r)), nil
	case "OR":
		if truthy(l) {
			return NewBool(true), nil
		}
		return NewBool(truthy(r)), nil
	}
	return compareValues(op, l, r)
}

// compileOnFirst lowers a non-aggregate expression for use in aggregation
// context: evaluated on the group's first row, Null over an empty group.
func compileOnFirst(cols []envCol, x Expr) compiledAggExpr {
	f := compileExpr(cols, x)
	return func(rows []Row, params []Value) (Value, error) {
		if len(rows) == 0 {
			return Null, nil
		}
		return f(rows[0], params)
	}
}

// compileAggExpr lowers an expression that may contain aggregates:
// aggregate leaves stream over the group's rows, non-aggregate subtrees
// evaluate on the first row.
func compileAggExpr(cols []envCol, x Expr) compiledAggExpr {
	switch v := x.(type) {
	case *AggExpr:
		return compileAgg(cols, v)
	case *BinaryExpr:
		if !hasAggregate(v) {
			return compileOnFirst(cols, v)
		}
		l := compileAggExpr(cols, v.L)
		r := compileAggExpr(cols, v.R)
		op := v.Op
		return func(rows []Row, params []Value) (Value, error) {
			lv, err := l(rows, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(rows, params)
			if err != nil {
				return Null, err
			}
			return applyBinaryValues(op, lv, rv)
		}
	case *UnaryExpr:
		inner := compileAggExpr(cols, v.E)
		return func(rows []Row, params []Value) (Value, error) {
			val, err := inner(rows, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}
	default:
		return compileOnFirst(cols, x)
	}
}

// compileAgg lowers one aggregate call into a streaming accumulator: no
// per-group value slice is materialized, and DISTINCT deduplicates through
// the binary key encoder over a reused scratch buffer.
func compileAgg(cols []envCol, a *AggExpr) compiledAggExpr {
	if a.Star {
		return func(rows []Row, _ []Value) (Value, error) {
			return NewInt(int64(len(rows))), nil
		}
	}
	arg := compileExpr(cols, a.Arg)
	distinct := a.Distinct
	switch a.Fn {
	case "COUNT":
		return func(rows []Row, params []Value) (Value, error) {
			var seen map[string]struct{}
			var scratch []byte
			if distinct {
				seen = make(map[string]struct{})
			}
			n := 0
			for _, r := range rows {
				v, err := arg(r, params)
				if err != nil {
					return Null, err
				}
				if v.IsNull() {
					continue
				}
				if distinct {
					scratch = appendValueKey(scratch[:0], v)
					if _, dup := seen[string(scratch)]; dup {
						continue
					}
					seen[string(scratch)] = struct{}{}
				}
				n++
			}
			return NewInt(int64(n)), nil
		}
	case "SUM", "AVG":
		fn := a.Fn
		return func(rows []Row, params []Value) (Value, error) {
			var seen map[string]struct{}
			var scratch []byte
			if distinct {
				seen = make(map[string]struct{})
			}
			var sum float64
			allInt := true
			n := 0
			// The oracle collects all values (surfacing evaluation errors)
			// before type-checking them, so a deferred pendingErr keeps the
			// error precedence identical while streaming.
			var pendingErr error
			for _, r := range rows {
				v, err := arg(r, params)
				if err != nil {
					return Null, err
				}
				if v.IsNull() {
					continue
				}
				if distinct {
					scratch = appendValueKey(scratch[:0], v)
					if _, dup := seen[string(scratch)]; dup {
						continue
					}
					seen[string(scratch)] = struct{}{}
				}
				if pendingErr != nil {
					continue
				}
				f, ok := v.numeric()
				if !ok {
					pendingErr = fmt.Errorf("relational: %s over non-numeric value", fn)
					continue
				}
				if v.T != TInt {
					allInt = false
				}
				sum += f
				n++
			}
			if pendingErr != nil {
				return Null, pendingErr
			}
			if n == 0 {
				return Null, nil
			}
			if fn == "AVG" {
				return NewFloat(sum / float64(n)), nil
			}
			if allInt {
				return NewInt(int64(sum)), nil
			}
			return NewFloat(sum), nil
		}
	case "MIN", "MAX":
		min := a.Fn == "MIN"
		// DISTINCT cannot change a min or max; skip the dedup work.
		return func(rows []Row, params []Value) (Value, error) {
			best := Null
			have := false
			for _, r := range rows {
				v, err := arg(r, params)
				if err != nil {
					return Null, err
				}
				if v.IsNull() {
					continue
				}
				if !have {
					best, have = v, true
					continue
				}
				c := Compare(v, best)
				if (min && c < 0) || (!min && c > 0) {
					best = v
				}
			}
			if !have {
				return Null, nil
			}
			return best, nil
		}
	default:
		fn := a.Fn
		return func([]Row, []Value) (Value, error) {
			return Null, fmt.Errorf("relational: unknown aggregate %q", fn)
		}
	}
}

// ---- SELECT compilation ----

type selectProgram struct {
	sel       *SelectStmt
	base      *table
	baseWidth int // base table column count (row width before joins)
	layout    []envCol
	joins     []joinProgram
	where     compiledExpr
	whereDesc string
	// whereAuto marks WHERE trees containing auto-extracted literal params:
	// their Filter(...) plan line depends on the bound values (rendered per
	// execution by filterDesc so shape-cached plans print exactly like
	// exact-keyed ones).
	whereAuto bool
	// access holds the precompiled sargable-predicate candidates extracted
	// from the WHERE conjuncts. Index existence and kind are resolved per
	// execution (planAccessCompiled), so a CREATE INDEX is picked up without
	// recompiling and a shape-shared plan chooses its access path from the
	// literals bound to this execution.
	access []accessCand

	columns  []string
	outWidth int

	aggregated bool
	items      []itemProgram // non-aggregated projection
	aggItems   []compiledAggExpr
	groupBy    []int
	having     compiledAggExpr
	aggDesc    string // "GroupBy(n keys)" or "Aggregate"
	// Errors an aggregated statement raises once its WHERE has filtered
	// every row, in the oracle's order: starErr always (SELECT * with
	// aggregates), keyErr (an unresolvable GROUP BY key) only when a row
	// survives the filter, orderErr (an ORDER BY key that is not an output
	// column) at the sort.
	starErr  error
	keyErr   error
	orderErr error

	orderBy  []orderProgram
	sortDesc string
}

type joinProgram struct {
	t     *table
	lIdx  int // offset in the accumulated left layout
	rIdx  int // offset within the joined table's rows
	width int // joined table column count
	left  bool
	desc  string
}

type itemProgram struct {
	star bool
	f    compiledExpr
}

type orderProgram struct {
	outIdx int          // >= 0: sort key is this output column
	f      compiledExpr // else: evaluated against the input row
	desc   bool
}

func outColumnIndex(columns []string, name string) int {
	for i, c := range columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// orderOutIndex returns the output column an ORDER BY key sorts on, or -1
// when the key is evaluated against the input row: only an unqualified
// column reference naming an output column (or alias) sorts the output.
func orderOutIndex(ob OrderItem, columns []string) int {
	if cr, ok := ob.Expr.(*ColumnRef); ok && cr.Table == "" {
		return outColumnIndex(columns, cr.Column)
	}
	return -1
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColumnRef); ok {
		return c.Column
	}
	return exprString(it.Expr)
}

// outputColumns names the result columns of a select list; pretty holds the
// column names of the FROM and JOIN tables in layout order (what * expands
// to).
func outputColumns(items []SelectItem, pretty []string) []string {
	var names []string
	for _, it := range items {
		if it.Star {
			names = append(names, pretty...)
			continue
		}
		names = append(names, itemName(it))
	}
	return names
}

// distinctOrderErr rejects SELECT DISTINCT with an ORDER BY key outside the
// select list, as PostgreSQL does: DISTINCT merges input rows, so a key
// read from them has no single value per output row. Both executors raise
// it before reading any row.
func distinctOrderErr(sel *SelectStmt, columns []string) error {
	if !sel.Distinct {
		return nil
	}
	for _, ob := range sel.OrderBy {
		if orderOutIndex(ob, columns) < 0 {
			return fmt.Errorf("relational: for SELECT DISTINCT, ORDER BY key %q must appear in the select list", exprString(ob.Expr))
		}
	}
	return nil
}

// buildSelectProgram compiles a SELECT. Its error return is the statement's
// static error, raised in the oracle's order: a missing FROM table, then per
// join a missing table or an unresolvable ON column, then DISTINCT with an
// input-row ORDER BY key.
func (db *DB) buildSelectProgram(sel *SelectStmt) (*selectProgram, error) {
	base, err := db.table(sel.From.Table)
	if err != nil {
		return nil, err
	}
	p := &selectProgram{
		sel:       sel,
		base:      base,
		baseWidth: len(base.schema.Columns),
	}
	baseName := strings.ToLower(sel.From.Name())
	cols := make([]envCol, 0, len(base.schema.Columns))
	for _, c := range base.schema.Columns {
		cols = append(cols, envCol{table: baseName, name: strings.ToLower(c.Name)})
	}
	pretty := append([]string(nil), base.schema.Names()...)

	for _, j := range sel.Joins {
		jt, err := db.table(j.Table.Table)
		if err != nil {
			return nil, err
		}
		jName := strings.ToLower(j.Table.Name())
		jCols := make([]envCol, 0, len(jt.schema.Columns))
		for _, c := range jt.schema.Columns {
			jCols = append(jCols, envCol{table: jName, name: strings.ToLower(c.Name)})
		}
		// Determine which side of ON belongs to the joined table: ON may
		// name the joined side first.
		leftRef, rightRef := j.LCol, j.RCol
		rIdx, err := resolveCol(jCols, &rightRef)
		if err != nil {
			leftRef, rightRef = rightRef, leftRef
			if rIdx, err = resolveCol(jCols, &rightRef); err != nil {
				return nil, fmt.Errorf("relational: join condition references no column of %s", j.Table.Name())
			}
		}
		lIdx, err := resolveCol(cols, &leftRef)
		if err != nil {
			return nil, err
		}
		kind := "HashJoin"
		if j.Left {
			kind = "LeftHashJoin"
		}
		p.joins = append(p.joins, joinProgram{
			t:     jt,
			lIdx:  lIdx,
			rIdx:  rIdx,
			width: len(jt.schema.Columns),
			left:  j.Left,
			desc:  fmt.Sprintf("%s(%s ON %s = %s)", kind, j.Table.Name(), j.LCol.String(), j.RCol.String()),
		})
		cols = append(cols, jCols...)
		pretty = append(pretty, jt.schema.Names()...)
	}
	p.layout = cols
	p.columns = outputColumns(sel.Items, pretty)
	if err := distinctOrderErr(sel, p.columns); err != nil {
		return nil, err
	}

	if sel.Where != nil {
		p.where = compileExpr(cols, sel.Where)
		p.whereAuto = hasAutoParam(sel.Where)
		p.whereDesc = "Filter(" + exprString(sel.Where) + ")"
	}
	p.access = buildAccessCands(baseName, sel.Where)

	p.aggregated = len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if !it.Star && hasAggregate(it.Expr) {
			p.aggregated = true
		}
	}

	if p.aggregated {
		for _, it := range sel.Items {
			if it.Star {
				p.starErr = errors.New("relational: SELECT * cannot be combined with aggregates")
				break
			}
			p.aggItems = append(p.aggItems, compileAggExpr(cols, it.Expr))
		}
		p.outWidth = len(p.aggItems)
		for _, gc := range sel.GroupBy {
			gcCopy := gc
			i, err := resolveCol(cols, &gcCopy)
			if err != nil && p.keyErr == nil {
				p.keyErr = err
			}
			p.groupBy = append(p.groupBy, i)
		}
		if sel.Having != nil {
			p.having = compileAggExpr(cols, sel.Having)
		}
		if len(sel.GroupBy) > 0 {
			p.aggDesc = fmt.Sprintf("GroupBy(%d keys)", len(sel.GroupBy))
		} else {
			p.aggDesc = "Aggregate"
		}
	} else {
		for _, it := range sel.Items {
			if it.Star {
				p.items = append(p.items, itemProgram{star: true})
				p.outWidth += len(cols)
				continue
			}
			p.items = append(p.items, itemProgram{f: compileExpr(cols, it.Expr)})
			p.outWidth++
		}
	}

	for _, ob := range sel.OrderBy {
		op := orderProgram{outIdx: orderOutIndex(ob, p.columns), desc: ob.Desc}
		if op.outIdx < 0 {
			if p.aggregated {
				if p.orderErr == nil {
					p.orderErr = fmt.Errorf("relational: ORDER BY key %q must be an output column in aggregate queries", exprString(ob.Expr))
				}
			} else {
				op.f = compileExpr(cols, ob.Expr)
			}
		}
		p.orderBy = append(p.orderBy, op)
	}
	if len(sel.OrderBy) > 0 {
		p.sortDesc = fmt.Sprintf("Sort(%d keys)", len(sel.OrderBy))
	}
	return p, nil
}

// filterDesc returns the Filter(...) plan line for one execution: static
// when the WHERE tree has no auto-extracted literals, else rendered against
// the bound values.
func (p *selectProgram) filterDesc(params []Value) string {
	if !p.whereAuto {
		return p.whereDesc
	}
	var b strings.Builder
	// The static form approximates the rendered length ('?' slots become
	// bound values); one Grow keeps the builder from doubling through the
	// tree walk.
	b.Grow(len(p.whereDesc) + 48)
	b.WriteString("Filter(")
	writeExprDisplay(&b, p.sel.Where, params)
	b.WriteByte(')')
	return b.String()
}

// ---- compiled sargable-predicate extraction ----

// valueGetter resolves one comparison operand at execution time: a captured
// literal, or a parameter slot (explicit or auto-extracted). ok is false
// when the slot is unbound.
type valueGetter func(params []Value) (Value, bool)

type accessCandKind int

const (
	candBinary accessCandKind = iota
	candIn
	candBetween
)

// accessCand is one WHERE conjunct precompiled for access-path planning.
// For binary comparisons both orientations are recorded when syntactically
// eligible ("col op const" forward, "const op col" reversed with the
// operator pre-flipped); which one applies is decided per execution, after
// the index and the bound value are known — exactly the precedence of the
// interpreted planAccess.
type accessCand struct {
	kind accessCandKind

	fwdCol string // lowercased base-table column, "" if ineligible
	fwdOp  string
	fwdVal valueGetter
	revCol string
	revOp  string
	revVal valueGetter

	col   string        // IN / BETWEEN column
	items []valueGetter // IN list operands
	n     int           // len of the original IN list (for the plan line)
	lo    valueGetter   // BETWEEN bounds
	hi    valueGetter
}

// constGetter compiles a constant-valued operand (literal or parameter);
// nil if the expression is not a planning-time constant.
func constGetter(e Expr) valueGetter {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func([]Value) (Value, bool) { return v, true }
	case *Param:
		ord := x.Ordinal
		return func(params []Value) (Value, bool) {
			if ord-1 < len(params) && params[ord-1].T != missingParamType {
				return params[ord-1], true
			}
			return Null, false
		}
	}
	return nil
}

// baseColumn returns the lowercased column name when e references a column
// of the base table (unqualified or qualified by its effective name), else
// "".
func baseColumn(e Expr, baseNameLower string) string {
	cr, ok := e.(*ColumnRef)
	if !ok {
		return ""
	}
	if cr.Table != "" && strings.ToLower(cr.Table) != baseNameLower {
		return ""
	}
	return strings.ToLower(cr.Column)
}

// buildAccessCands extracts the sargable candidates from the WHERE
// conjuncts at compile time. Conjunct order is preserved: the per-execution
// planner considers candidates in the same order as the interpreted one, so
// its strict tie-break picks the same winner.
func buildAccessCands(baseNameLower string, where Expr) []accessCand {
	if where == nil {
		return nil
	}
	var out []accessCand
	for _, cj := range splitAnd(where) {
		switch x := cj.(type) {
		case *BinaryExpr:
			if _, sarg := flippedOp[x.Op]; !sarg {
				continue
			}
			c := accessCand{kind: candBinary}
			if col := baseColumn(x.L, baseNameLower); col != "" {
				if g := constGetter(x.R); g != nil {
					c.fwdCol, c.fwdOp, c.fwdVal = col, x.Op, g
				}
			}
			if col := baseColumn(x.R, baseNameLower); col != "" {
				if g := constGetter(x.L); g != nil {
					c.revCol, c.revOp, c.revVal = col, flippedOp[x.Op], g
				}
			}
			if c.fwdCol != "" || c.revCol != "" {
				out = append(out, c)
			}
		case *InExpr:
			if x.Not {
				continue
			}
			col := baseColumn(x.E, baseNameLower)
			if col == "" {
				continue
			}
			c := accessCand{kind: candIn, col: col, n: len(x.List)}
			ok := true
			for _, item := range x.List {
				g := constGetter(item)
				if g == nil {
					ok = false
					break
				}
				c.items = append(c.items, g)
			}
			if ok {
				out = append(out, c)
			}
		case *BetweenExpr:
			if x.Not {
				continue
			}
			col := baseColumn(x.E, baseNameLower)
			if col == "" {
				continue
			}
			lo := constGetter(x.Lo)
			hi := constGetter(x.Hi)
			if lo == nil || hi == nil {
				continue
			}
			out = append(out, accessCand{kind: candBetween, col: col, lo: lo, hi: hi})
		}
	}
	return out
}

// planAccessCompiled is the compiled twin of (*table).planAccess: it walks
// the precompiled candidates against the live index set and this
// execution's bound values, producing the same access path (and plan line)
// the interpreted planner would choose for the equivalent literal text.
func (p *selectProgram) planAccessCompiled(t *table, params []Value) accessPath {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return planAccessLocked(t, p.access, params, p.sel.Explain)
}

// planAccessLocked picks the best access path for the precompiled candidates
// under this execution's bound values. The caller holds t.mu (read or write).
// The desc plan line is rendered only when wantDesc (EXPLAIN): ordinary
// queries never pay for it.
func planAccessLocked(t *table, access []accessCand, params []Value, wantDesc bool) accessPath {
	if len(access) == 0 || len(t.indexes) == 0 {
		if !wantDesc {
			return accessPath{all: true}
		}
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	// candidate carries what the winner's plan line needs; the desc string is
	// rendered once, for the winning candidate only, at the end — losers must
	// not cost a formatted string per execution.
	type candidate struct {
		rank int
		ids  []int
		ix   *indexDef
		op   string // "=", "<", "<=", ">", ">=", "IN", "BETWEEN"
		v    Value
		hi   Value // BETWEEN upper bound
		n    int   // IN list length
	}
	var (
		best  candidate
		found bool
	)
	consider := func(c candidate) {
		if !found || c.rank < best.rank || (c.rank == best.rank && len(c.ids) < len(best.ids)) {
			best = c
			found = true
		}
	}
	// resolve maps a binary candidate onto the live index set for this
	// execution's bound values: the forward orientation wins when both sides
	// are indexed, matching the interpreted planner.
	resolve := func(ac *accessCand) (*indexDef, Value, string) {
		if ac.fwdCol != "" {
			if cand := t.indexes[ac.fwdCol]; cand != nil {
				if fv, ok := ac.fwdVal(params); ok && !fv.IsNull() {
					return cand, fv, ac.fwdOp
				}
			}
		}
		if ac.revCol != "" {
			if cand := t.indexes[ac.revCol]; cand != nil {
				if rv, ok := ac.revVal(params); ok && !rv.IsNull() {
					return cand, rv, ac.revOp
				}
			}
		}
		return nil, Null, ""
	}
	// Candidates are considered strictly by rank: equality (0), then IN (1),
	// then ranges (2). A lower rank always wins regardless of result size, so
	// once any candidate matched at one tier the cheaper tiers below it are
	// never materialized — a point lookup guarded by a broad sargable range
	// (`id = 7 AND salary < 999999`) must not pay for collecting the range's
	// ids just to discard them.
	for i := range access {
		ac := &access[i]
		if ac.kind != candBinary {
			continue
		}
		if ix, v, op := resolve(ac); ix != nil && op == "=" {
			consider(candidate{rank: 0, ids: ix.lookupEqLocked(v), ix: ix, op: "=", v: v})
		}
	}
	if !found {
		for i := range access {
			ac := &access[i]
			if ac.kind != candIn {
				continue
			}
			ix := t.indexes[ac.col]
			if ix == nil {
				continue
			}
			var ids []int
			ok := true
			for _, g := range ac.items {
				v, o := g(params)
				if !o {
					ok = false
					break
				}
				ids = append(ids, ix.lookupEqLocked(v)...)
			}
			if ok {
				consider(candidate{rank: 1, ids: dedupInts(ids), ix: ix, op: "IN", n: ac.n})
			}
		}
	}
	if !found {
		for i := range access {
			ac := &access[i]
			switch ac.kind {
			case candBinary:
				ix, v, op := resolve(ac)
				if ix == nil || ix.kind != OrderedIndex {
					continue
				}
				switch op {
				case "<", "<=":
					consider(candidate{rank: 2, ids: ix.order.lookupRange(Null, v, false, op == "<"), ix: ix, op: op, v: v})
				case ">", ">=":
					consider(candidate{rank: 2, ids: ix.order.lookupRange(v, Null, op == ">", false), ix: ix, op: op, v: v})
				}
			case candBetween:
				ix := t.indexes[ac.col]
				if ix == nil || ix.kind != OrderedIndex {
					continue
				}
				lo, ok1 := ac.lo(params)
				hi, ok2 := ac.hi(params)
				if !ok1 || !ok2 {
					continue
				}
				consider(candidate{rank: 2, ids: ix.order.lookupRange(lo, hi, false, false), ix: ix, op: "BETWEEN", v: lo, hi: hi})
			}
		}
	}
	if !found {
		if !wantDesc {
			return accessPath{all: true}
		}
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	if !wantDesc {
		return accessPath{ids: best.ids}
	}
	var b strings.Builder
	b.Grow(64)
	switch best.op {
	case "=":
		b.WriteString("IndexScan(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteString(" = ")
		writeValueDisplay(&b, best.v)
		b.WriteString(", ")
		b.WriteString(best.ix.kind.String())
		b.WriteByte(')')
	case "IN":
		fmt.Fprintf(&b, "IndexScan(%s.%s IN [%d values], %s)", t.name, best.ix.column, best.n, best.ix.kind)
	case "BETWEEN":
		b.WriteString("IndexRange(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteString(" BETWEEN ")
		writeValueDisplay(&b, best.v)
		b.WriteString(" AND ")
		writeValueDisplay(&b, best.hi)
		b.WriteByte(')')
	default: // <, <=, >, >=
		b.WriteString("IndexRange(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteByte(' ')
		b.WriteString(best.op)
		b.WriteByte(' ')
		writeValueDisplay(&b, best.v)
		b.WriteByte(')')
	}
	return accessPath{desc: b.String(), ids: best.ids}
}

// ---- SELECT execution ----

// rowArena block-allocates fixed-width output rows: one []Value chunk
// serves many rows, so the steady state of a projection or join loop does
// one allocation per chunk instead of one per row. Rows handed out are
// disjoint sub-slices capped at width, so appends never spill into a
// neighbour. release returns the most recently handed-out row (used when
// DISTINCT drops a duplicate).
type rowArena struct {
	buf   []Value
	off   int
	width int
	chunk int // rows per chunk, doubling up to rowArenaMaxChunk
}

const (
	rowArenaMinChunk = 16
	rowArenaMaxChunk = 1024
)

func newRowArena(width int) *rowArena {
	return &rowArena{width: width, chunk: rowArenaMinChunk}
}

func (a *rowArena) next() Row {
	if a.width == 0 {
		return Row{}
	}
	if a.off+a.width > len(a.buf) {
		a.buf = make([]Value, a.chunk*a.width)
		a.off = 0
		if a.chunk < rowArenaMaxChunk {
			a.chunk *= 2
		}
	}
	r := a.buf[a.off : a.off : a.off+a.width]
	a.off += a.width
	return r
}

func (a *rowArena) release() {
	if a.off >= a.width {
		a.off -= a.width
	}
}

// sortCand is one output row with its precomputed ORDER BY keys. seq
// preserves the input sequence for stable ties.
type sortCand struct {
	out  Row
	keys []Value
	seq  int
}

func (p *selectProgram) candLess(a, b *sortCand) bool {
	for ki := range p.orderBy {
		c := Compare(a.keys[ki], b.keys[ki])
		if c == 0 {
			continue
		}
		if p.orderBy[ki].desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// errStopScan is returned by pipeline visitors to terminate a scan early
// (OFFSET+LIMIT satisfied); it never escapes to callers.
var errStopScan = errors.New("relational: stop scan")

// rowIter drives rows through a visitor. The no-join scan iterates the base
// table under its read lock without materializing a snapshot slice — the
// fused scan→filter→project pipeline; joins iterate the materialized join
// output.
type rowIter func(visit func(Row) error) error

func (db *DB) runSelectProgram(p *selectProgram, params []Value) (*Result, error) {
	sel := p.sel
	base := p.base
	path := p.planAccessCompiled(base, params)
	var planLines []string
	if sel.Explain {
		planLines = append(make([]string, 0, 8), path.desc)
	}

	var iter rowIter
	if len(p.joins) == 0 {
		// Fused scan: rows stream straight from storage into the filter
		// and projection closures, under the table read lock — no snapshot
		// slice is materialized between scan and the rest of the pipeline.
		iter = func(visit func(Row) error) error {
			base.mu.RLock()
			defer base.mu.RUnlock()
			if path.all {
				for id, r := range base.rows {
					if !base.live[id] {
						continue
					}
					if err := visit(r); err != nil {
						return err
					}
				}
				return nil
			}
			for _, id := range path.ids {
				if id >= 0 && id < len(base.rows) && base.live[id] {
					if err := visit(base.rows[id]); err != nil {
						return err
					}
				}
			}
			return nil
		}
		return db.runSelectTail(p, iter, params, planLines)
	}

	var rows []Row
	if path.all {
		rows = base.snapshotRows()
	} else {
		base.mu.RLock()
		rows = make([]Row, 0, len(path.ids))
		for _, id := range path.ids {
			if id >= 0 && id < len(base.rows) && base.live[id] {
				rows = append(rows, base.rows[id])
			}
		}
		base.mu.RUnlock()
	}

	// Hash joins with binary keys: probes allocate nothing, build keys are
	// materialized once per distinct value, and joined rows come from a
	// block arena instead of one allocation each.
	var scratch []byte
	curWidth := p.baseWidth
	for _, jp := range p.joins {
		build := buildJoinHash(jp.t.snapshotRows(), jp.rIdx)
		joined := make([]Row, 0, len(rows))
		arena := newRowArena(curWidth + jp.width)
		var nullRight Row
		if jp.left {
			nullRight = make(Row, jp.width)
			for i := range nullRight {
				nullRight[i] = Null
			}
		}
		for _, lr := range rows {
			v := lr[jp.lIdx]
			var matches []Row
			if !v.IsNull() {
				scratch = appendValueKey(scratch[:0], v)
				if b := build[string(scratch)]; b != nil {
					matches = b.rows
				}
			}
			if len(matches) == 0 {
				if jp.left {
					nr := arena.next()
					nr = append(nr, lr...)
					nr = append(nr, nullRight...)
					joined = append(joined, nr)
				}
				continue
			}
			for _, rr := range matches {
				nr := arena.next()
				nr = append(nr, lr...)
				nr = append(nr, rr...)
				joined = append(joined, nr)
			}
		}
		rows = joined
		curWidth += jp.width
		if sel.Explain {
			planLines = append(planLines, jp.desc)
		}
	}

	iter = func(visit func(Row) error) error {
		for _, r := range rows {
			if err := visit(r); err != nil {
				return err
			}
		}
		return nil
	}
	return db.runSelectTail(p, iter, params, planLines)
}

// runSelectTail runs the post-scan pipeline (filter, aggregation or
// projection, DISTINCT, ordering, limits) and assembles the plan string.
func (db *DB) runSelectTail(p *selectProgram, iter rowIter, params []Value, planLines []string) (*Result, error) {
	var out *Result
	var err error
	if p.aggregated {
		out, err = db.runAggregate(p, iter, params, &planLines)
	} else {
		out, err = db.runProject(p, iter, params, &planLines)
	}
	if err != nil {
		return nil, err
	}
	if p.sel.Explain {
		out.Plan = strings.Join(planLines, " -> ")
		return &Result{Columns: []string{"plan"}, Rows: []Row{{NewString(out.Plan)}}, Plan: out.Plan}, nil
	}
	return out, nil
}

func distinctRows(rows []Row) []Row {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	var scratch []byte
	for _, r := range rows {
		scratch = appendRowKey(scratch[:0], r)
		if _, dup := seen[string(scratch)]; dup {
			continue
		}
		seen[string(scratch)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// runAggregate executes the grouped/aggregated tail of a compiled SELECT:
// fused filter+group with binary bucket keys, streaming accumulators per
// item, then HAVING, DISTINCT, ORDER BY (output columns only) and
// OFFSET/LIMIT with the oracle's plan-line behaviour.
func (db *DB) runAggregate(p *selectProgram, iter rowIter, params []Value, planLines *[]string) (*Result, error) {
	sel := p.sel
	type aggGroup struct{ rows []Row }
	var groups []*aggGroup
	if len(p.groupBy) == 0 {
		g := &aggGroup{}
		err := iter(func(r Row) error {
			if p.where != nil {
				v, err := p.where(r, params)
				if err != nil {
					return err
				}
				if !truthy(v) {
					return nil
				}
			}
			g.rows = append(g.rows, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	} else {
		byKey := make(map[string]*aggGroup)
		var scratch []byte
		matched := false
		err := iter(func(r Row) error {
			if p.where != nil {
				v, err := p.where(r, params)
				if err != nil {
					return err
				}
				if !truthy(v) {
					return nil
				}
			}
			if p.keyErr != nil {
				// Keep filtering: a WHERE error on a later row wins.
				matched = true
				return nil
			}
			scratch = scratch[:0]
			for _, gi := range p.groupBy {
				scratch = appendValueKey(scratch, r[gi])
			}
			g := byKey[string(scratch)]
			if g == nil {
				g = &aggGroup{}
				byKey[string(scratch)] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if matched && p.starErr == nil {
			return nil, p.keyErr
		}
	}
	if p.starErr != nil {
		return nil, p.starErr
	}
	if p.where != nil {
		if p.sel.Explain {
			*planLines = append(*planLines, p.filterDesc(params))
		}
	}

	out := &Result{Columns: p.columns}
	for _, g := range groups {
		if len(p.groupBy) == 0 && len(g.rows) == 0 {
			// Global aggregate over empty input yields one row; HAVING is
			// not consulted (oracle behaviour).
			or := make(Row, 0, p.outWidth)
			for _, f := range p.aggItems {
				v, err := f(g.rows, params)
				if err != nil {
					return nil, err
				}
				or = append(or, v)
			}
			out.Rows = append(out.Rows, or)
			continue
		}
		if p.having != nil {
			hv, err := p.having(g.rows, params)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		or := make(Row, 0, p.outWidth)
		for _, f := range p.aggItems {
			v, err := f(g.rows, params)
			if err != nil {
				return nil, err
			}
			or = append(or, v)
		}
		out.Rows = append(out.Rows, or)
	}
	if p.sel.Explain {
		*planLines = append(*planLines, p.aggDesc)
	}

	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
		if p.sel.Explain {
			*planLines = append(*planLines, "Distinct")
		}
	}

	if len(p.orderBy) > 0 {
		if p.orderErr != nil {
			return nil, p.orderErr
		}
		idx := make([]int, len(out.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for _, op := range p.orderBy {
				c := Compare(out.Rows[idx[a]][op.outIdx], out.Rows[idx[b]][op.outIdx])
				if c == 0 {
					continue
				}
				if op.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]Row, len(out.Rows))
		for i, pos := range idx {
			sorted[i] = out.Rows[pos]
		}
		out.Rows = sorted
		if p.sel.Explain {
			*planLines = append(*planLines, p.sortDesc)
		}
	}

	if sel.Offset > 0 {
		if sel.Offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(out.Rows) {
		out.Rows = out.Rows[:sel.Limit]
		if p.sel.Explain {
			*planLines = append(*planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
		}
	}
	return out, nil
}

// runProject executes the non-aggregated tail: a fused scan→filter→project
// pipeline that streams rows straight into the result, deduplicates DISTINCT
// through binary keys, stops early once OFFSET+LIMIT rows are produced, and
// serves ORDER BY + LIMIT through a bounded top-k heap. An error aborts the
// pass; stagedErr then picks the error the staged oracle would raise.
func (db *DB) runProject(p *selectProgram, iter rowIter, params []Value, planLines *[]string) (*Result, error) {
	sel := p.sel
	out := &Result{Columns: p.columns}

	arena := newRowArena(p.outWidth)
	project := func(r Row) (Row, error) {
		or := arena.next()
		for _, it := range p.items {
			if it.star {
				or = append(or, r...)
				continue
			}
			v, err := it.f(r, params)
			if err != nil {
				return nil, err
			}
			or = append(or, v)
		}
		return or, nil
	}

	var seen map[string]struct{}
	var scratch []byte
	if sel.Distinct {
		seen = make(map[string]struct{})
	}

	if len(p.orderBy) == 0 {
		need := -1
		if sel.Limit >= 0 {
			need = sel.Offset + sel.Limit
		}
		sawMore := false
		err := iter(func(r Row) error {
			if p.where != nil {
				v, err := p.where(r, params)
				if err != nil {
					return err
				}
				if !truthy(v) {
					return nil
				}
			}
			if seen == nil {
				if need >= 0 && len(out.Rows) == need {
					sawMore = true
					return errStopScan
				}
				or, err := project(r)
				if err != nil {
					return err
				}
				out.Rows = append(out.Rows, or)
				return nil
			}
			or, err := project(r)
			if err != nil {
				return err
			}
			scratch = appendRowKey(scratch[:0], or)
			if _, dup := seen[string(scratch)]; dup {
				arena.release()
				return nil
			}
			if need >= 0 && len(out.Rows) == need {
				sawMore = true
				return errStopScan
			}
			seen[string(scratch)] = struct{}{}
			out.Rows = append(out.Rows, or)
			return nil
		})
		if err != nil && err != errStopScan {
			return nil, p.stagedErr(iter, params, err)
		}
		if p.where != nil {
			if p.sel.Explain {
				*planLines = append(*planLines, p.filterDesc(params))
			}
		}
		if sel.Distinct {
			if p.sel.Explain {
				*planLines = append(*planLines, "Distinct")
			}
		}
		if sel.Offset > 0 {
			if sel.Offset >= len(out.Rows) {
				out.Rows = nil
			} else {
				out.Rows = out.Rows[sel.Offset:]
			}
		}
		if sel.Limit >= 0 {
			trimmed := sel.Limit < len(out.Rows)
			if trimmed {
				out.Rows = out.Rows[:sel.Limit]
			}
			if sawMore || trimmed {
				if p.sel.Explain {
					*planLines = append(*planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
				}
			}
		}
		return out, nil
	}

	// ORDER BY: compute sort keys alongside projection in one pass. With a
	// LIMIT, a bounded top-k heap keeps only the OFFSET+LIMIT first rows in
	// sort order instead of materializing and sorting the full input.
	k := -1
	if sel.Limit >= 0 {
		k = sel.Offset + sel.Limit
	}
	var heap *topk.Heap[*sortCand]
	var cands []*sortCand
	if k >= 0 {
		heap = topk.New(k, p.candLess)
	}
	total := 0
	err := iter(func(r Row) error {
		if p.where != nil {
			v, err := p.where(r, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		or, err := project(r)
		if err != nil {
			return err
		}
		if seen != nil {
			scratch = appendRowKey(scratch[:0], or)
			if _, dup := seen[string(scratch)]; dup {
				arena.release()
				return nil
			}
			seen[string(scratch)] = struct{}{}
		}
		keys := make([]Value, len(p.orderBy))
		for ki, op := range p.orderBy {
			if op.outIdx >= 0 {
				keys[ki] = or[op.outIdx]
				continue
			}
			v, err := op.f(r, params)
			if err != nil {
				return err
			}
			keys[ki] = v
		}
		c := &sortCand{out: or, keys: keys, seq: total}
		total++
		if heap != nil {
			heap.Offer(c)
		} else {
			cands = append(cands, c)
		}
		return nil
	})
	if err != nil {
		return nil, p.stagedErr(iter, params, err)
	}
	if heap != nil {
		cands = heap.Items()
	}
	sort.Slice(cands, func(i, j int) bool { return p.candLess(cands[i], cands[j]) })

	if p.where != nil {
		if p.sel.Explain {
			*planLines = append(*planLines, p.filterDesc(params))
		}
	}
	if sel.Distinct {
		if p.sel.Explain {
			*planLines = append(*planLines, "Distinct")
		}
	}
	if p.sel.Explain {
		*planLines = append(*planLines, p.sortDesc)
	}

	start := sel.Offset
	if start > len(cands) {
		start = len(cands)
	}
	for _, c := range cands[start:] {
		out.Rows = append(out.Rows, c.out)
	}
	afterOffset := total - sel.Offset
	if afterOffset < 0 {
		afterOffset = 0
	}
	if sel.Limit >= 0 {
		if sel.Limit < len(out.Rows) {
			out.Rows = out.Rows[:sel.Limit]
		}
		if sel.Limit < afterOffset {
			if p.sel.Explain {
				*planLines = append(*planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
			}
		}
	}
	return out, nil
}

// stagedErr returns the error the staged oracle raises for a projection
// whose fused pass failed with err. The oracle filters every row, then
// projects the survivors, then evaluates the ORDER BY keys one key at a
// time, so a WHERE error on any row wins, then the first row's projection
// error, then the first ORDER BY key that fails on some row. The rescan
// runs only on this error path; if it finds nothing (a concurrent write
// removed the failing row), the first pass's error stands.
func (p *selectProgram) stagedErr(iter rowIter, params []Value, err error) error {
	var staged error
	rank := 1 + len(p.orderBy) // projection 0, ORDER BY key i at 1+i
	if scanErr := iter(func(r Row) error {
		if p.where != nil {
			v, err := p.where(r, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		for _, it := range p.items {
			if rank == 0 {
				return nil
			}
			if !it.star {
				if _, err := it.f(r, params); err != nil {
					staged, rank = err, 0
				}
			}
		}
		for ki, op := range p.orderBy {
			if 1+ki >= rank {
				return nil
			}
			if op.outIdx < 0 {
				if _, err := op.f(r, params); err != nil {
					staged, rank = err, 1+ki
				}
			}
		}
		return nil
	}); scanErr != nil {
		return scanErr
	}
	if staged != nil {
		return staged
	}
	return err
}

// ---- UPDATE / DELETE compilation ----

type updateProgram struct {
	t *table
	dmlWhere
	targets []updateTarget
}

type updateTarget struct {
	col  int
	name string
	typ  Type
	f    compiledExpr
}

type deleteProgram struct {
	t *table
	dmlWhere
}

func (db *DB) buildUpdateProgram(up *UpdateStmt) (*updateProgram, error) {
	t, err := db.table(up.Table)
	if err != nil {
		return nil, err
	}
	p := &updateProgram{t: t}
	cols := tableLayout(t, up.Table)
	for _, sc := range up.Set {
		ci := t.schema.ColIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, up.Table, sc.Column)
		}
		p.targets = append(p.targets, updateTarget{
			col:  ci,
			name: t.schema.Columns[ci].Name,
			typ:  t.schema.Columns[ci].Type,
			f:    compileExpr(cols, sc.Value),
		})
	}
	p.dmlWhere = compileDMLWhere(cols, up.Table, up.Where)
	return p, nil
}

func (db *DB) buildDeleteProgram(del *DeleteStmt) (*deleteProgram, error) {
	t, err := db.table(del.Table)
	if err != nil {
		return nil, err
	}
	p := &deleteProgram{t: t}
	p.dmlWhere = compileDMLWhere(tableLayout(t, del.Table), del.Table, del.Where)
	return p, nil
}

// dmlWhere is a compiled UPDATE/DELETE predicate (nil: every row) with its
// sargable candidates.
type dmlWhere struct {
	where  compiledExpr
	access []accessCand
	// params is the highest parameter ordinal the predicate reads.
	params int
}

// compileDMLWhere compiles an UPDATE/DELETE predicate and its sargable
// candidates. A WHERE with an unresolvable reference gets no candidates:
// its lazy error fires on whichever row first evaluates the reference, so
// it must visit every row in id order, as the oracle's full scan does,
// rather than the subset an index would pick. An unbound parameter is the
// same case, decided per execution (candidates).
func compileDMLWhere(cols []envCol, table string, where Expr) dmlWhere {
	if where == nil {
		return dmlWhere{}
	}
	w := dmlWhere{where: compileExpr(cols, where), params: maxParam(where)}
	if resolvable(cols, where) {
		w.access = buildAccessCands(strings.ToLower(table), where)
	}
	return w
}

// maxParam returns the highest parameter ordinal x reads (0 for none).
func maxParam(x Expr) int {
	n := 0
	anyExpr(x, func(e Expr) bool {
		if p, ok := e.(*Param); ok {
			n = max(n, p.Ordinal)
		}
		return false
	})
	return n
}

// tableLayout builds the single-table column layout used by DML predicates.
func tableLayout(t *table, name string) []envCol {
	baseName := strings.ToLower(name)
	cols := make([]envCol, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = envCol{table: baseName, name: strings.ToLower(c.Name)}
	}
	return cols
}

// candidates returns the row ids a compiled DML statement must visit,
// using the same staged access planner as compiled SELECTs. The returned
// slice is a private copy: the statement body mutates rows and index
// postings, and the planner's id slices may alias live index storage. A nil
// slice with all=true means the caller scans the whole table: no sargable
// candidate matched, or a parameter the predicate reads is unbound, whose
// error must fire on the row where the oracle's full scan raises it
// instead of being skipped by a narrower index pick. The caller holds t.mu
// for writing.
func (w *dmlWhere) candidates(t *table, params []Value) (ids []int, all bool) {
	if w.params > len(params) {
		return nil, true
	}
	for _, v := range params[:w.params] {
		if v.T == missingParamType {
			return nil, true
		}
	}
	path := planAccessLocked(t, w.access, params, false)
	if path.all {
		return nil, true
	}
	return append([]int(nil), path.ids...), false
}

func (db *DB) runUpdateProgram(p *updateProgram, params []Value) (*Result, error) {
	t := p.t
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	apply := func(id int) error {
		if !t.live[id] {
			return nil
		}
		row := t.rows[id]
		if p.where != nil {
			v, err := p.where(row, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		for _, tg := range p.targets {
			nv, err := tg.f(row, params)
			if err != nil {
				return err
			}
			cv, err := coerce(nv, tg.typ)
			if err != nil {
				return fmt.Errorf("column %q: %w", tg.name, err)
			}
			old := row[tg.col]
			for _, ix := range t.indexes {
				if ix.col == tg.col {
					ix.remove(id, old)
					ix.add(id, cv)
				}
			}
			row[tg.col] = cv
		}
		n++
		return nil
	}
	if ids, all := p.candidates(t, params); !all {
		for _, id := range ids {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	} else {
		for id := range t.rows {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	}
	return affected(n), nil
}

func (db *DB) runDeleteProgram(p *deleteProgram, params []Value) (*Result, error) {
	t := p.t
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	apply := func(id int) error {
		if !t.live[id] {
			return nil
		}
		if p.where != nil {
			v, err := p.where(t.rows[id], params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		t.live[id] = false
		t.liveCnt--
		for _, ix := range t.indexes {
			ix.remove(id, t.rows[id][ix.col])
		}
		n++
		return nil
	}
	if ids, all := p.candidates(t, params); !all {
		for _, id := range ids {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	} else {
		for id := range t.rows {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	}
	return affected(n), nil
}
