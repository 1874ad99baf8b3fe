package relational

import "fmt"

// execInsert evaluates row expressions (literals and parameters only) and
// appends them, honoring an optional explicit column list. The expressions
// compile against an empty layout, so a column reference raises its
// resolution error.
func (db *DB) execInsert(ins *InsertStmt, params []Value) (*Result, error) {
	t, err := db.table(ins.Table)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, exprRow := range ins.Rows {
		row := make(Row, len(t.schema.Columns))
		for i := range row {
			row[i] = Null
		}
		if len(ins.Columns) > 0 {
			if len(exprRow) != len(ins.Columns) {
				return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(exprRow), len(ins.Columns))
			}
			for i, cn := range ins.Columns {
				ci := t.schema.ColIndex(cn)
				if ci < 0 {
					return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, ins.Table, cn)
				}
				v, err := compileExpr(nil, exprRow[i])(nil, params)
				if err != nil {
					return nil, err
				}
				row[ci] = v
			}
		} else {
			if len(exprRow) != len(t.schema.Columns) {
				return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(exprRow), len(t.schema.Columns))
			}
			for i, ex := range exprRow {
				v, err := compileExpr(nil, ex)(nil, params)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		if err := t.insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return affected(n), nil
}
