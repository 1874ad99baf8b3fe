package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Differential tests: every statement is executed through the compiled path
// and through the interpreted oracle, and the two must agree on columns,
// rows, plan strings and errors. The corpus covers the full dialect surface
// (every operator, joins, grouping, HAVING, DISTINCT, ORDER BY/LIMIT/OFFSET,
// parameters, NULLs) plus the lazy and static error shapes.

// diffSchema builds the fixture's three joinable tables and their indexes,
// with no rows.
func diffSchema(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE jobs (id INT, title TEXT, city TEXT, company_id INT, salary INT, remote BOOL)`)
	mustExec(t, db, `CREATE TABLE companies (id INT, name TEXT, size TEXT)`)
	mustExec(t, db, `CREATE TABLE apps (id INT, job_id INT, score FLOAT, status TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_city ON jobs (city)`)
	mustExec(t, db, `CREATE ORDERED INDEX idx_salary ON jobs (salary)`)
	return db
}

// diffDB builds a fixture with NULLs, duplicate values, indexes and three
// joinable tables.
func diffDB(t testing.TB, seed int64) *DB {
	t.Helper()
	db := diffSchema(t)
	rng := rand.New(rand.NewSource(seed))
	titles := []string{"Data Scientist", "ML Engineer", "Analyst", "it's odd", ""}
	cities := []string{"Oakland", "Seattle", "Austin", "San Jose"}
	sizes := []string{"large", "mid", "small"}
	statuses := []string{"applied", "offer", "rejected"}
	for i := 0; i < 8; i++ {
		mustExec(t, db, `INSERT INTO companies VALUES (?, ?, ?)`,
			i, fmt.Sprintf("co%d", i), sizes[rng.Intn(len(sizes))])
	}
	for i := 0; i < 60; i++ {
		var city any = cities[rng.Intn(len(cities))]
		if rng.Intn(10) == 0 {
			city = nil // NULL city
		}
		var salary any = 90000 + rng.Intn(30)*1000
		if rng.Intn(12) == 0 {
			salary = nil
		}
		mustExec(t, db, `INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?)`,
			i, titles[rng.Intn(len(titles))], city, rng.Intn(10), salary, rng.Intn(2) == 0)
	}
	for i := 0; i < 120; i++ {
		var score any = float64(rng.Intn(1000)) / 10
		if rng.Intn(9) == 0 {
			score = nil
		}
		mustExec(t, db, `INSERT INTO apps VALUES (?, ?, ?, ?)`,
			i, rng.Intn(70), score, statuses[rng.Intn(len(statuses))])
	}
	return db
}

// runBoth executes sql through both paths and asserts identical outcomes.
// It returns the shared result for follow-up assertions.
func runBoth(t *testing.T, db *DB, sql string, params ...any) *Result {
	t.Helper()
	gotRes, gotErr := db.Query(sql, params...)
	wantRes, wantErr := db.queryOracle(sql, params...)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: compiled err = %v, interpreted err = %v", sql, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: compiled err %q, interpreted err %q", sql, gotErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(gotRes.Columns, wantRes.Columns) {
		t.Fatalf("%s: columns %v vs %v", sql, gotRes.Columns, wantRes.Columns)
	}
	if len(gotRes.Rows) != len(wantRes.Rows) {
		t.Fatalf("%s: %d rows vs %d rows\ncompiled: %v\ninterp:   %v",
			sql, len(gotRes.Rows), len(wantRes.Rows), gotRes.Rows, wantRes.Rows)
	}
	for i := range gotRes.Rows {
		if !reflect.DeepEqual(gotRes.Rows[i], wantRes.Rows[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", sql, i, gotRes.Rows[i], wantRes.Rows[i])
		}
	}
	if gotRes.Plan != wantRes.Plan {
		t.Fatalf("%s: plan %q vs %q", sql, gotRes.Plan, wantRes.Plan)
	}
	// Plan strings only render under EXPLAIN now, so sweep the EXPLAIN
	// variant of every SELECT too: compiled and interpreted access planning
	// must describe the same path.
	if up := strings.ToUpper(strings.TrimSpace(sql)); strings.HasPrefix(up, "SELECT") {
		esql := "EXPLAIN " + sql
		gotE, gotErr := db.Query(esql, params...)
		wantE, wantErr := db.queryOracle(esql, params...)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: compiled err = %v, interpreted err = %v", esql, gotErr, wantErr)
		}
		if gotErr == nil && gotE.Plan != wantE.Plan {
			t.Fatalf("%s: plan %q vs %q", esql, gotE.Plan, wantE.Plan)
		}
	}
	return gotRes
}

// TestDifferentialDialectSurface pins compiled == interpreted on a corpus
// exercising every construct of the dialect, including the error shapes.
func TestDifferentialDialectSurface(t *testing.T) {
	db := diffDB(t, 7)
	corpus := []struct {
		sql    string
		params []any
	}{
		// Scans, filters, every comparison operator.
		{`SELECT id, title FROM jobs`, nil},
		{`SELECT * FROM jobs WHERE salary > 100000`, nil},
		{`SELECT id FROM jobs WHERE salary >= ? AND salary <= ?`, []any{95000, 110000}},
		{`SELECT id FROM jobs WHERE salary < 95000 OR remote = TRUE`, nil},
		{`SELECT id FROM jobs WHERE title != 'Analyst'`, nil},
		{`SELECT id FROM jobs WHERE NOT remote = TRUE AND city = 'Oakland'`, nil},
		{`SELECT id FROM jobs WHERE title LIKE '%data%'`, nil},
		{`SELECT id FROM jobs WHERE title LIKE '_L %'`, nil},
		{`SELECT id FROM jobs WHERE city IN ('Oakland', 'Austin', ?)`, []any{"Seattle"}},
		{`SELECT id FROM jobs WHERE city NOT IN ('Oakland')`, nil},
		{`SELECT id FROM jobs WHERE salary BETWEEN ? AND ?`, []any{95000, 105000}},
		{`SELECT id FROM jobs WHERE salary NOT BETWEEN 95000 AND 105000`, nil},
		{`SELECT id FROM jobs WHERE city IS NULL`, nil},
		{`SELECT id, salary FROM jobs WHERE salary IS NOT NULL AND salary = 99000.0`, nil},
		// Index-served predicates (EXPLAIN plans must match too).
		{`EXPLAIN SELECT id FROM jobs WHERE city = 'Oakland'`, nil},
		{`SELECT id FROM jobs WHERE city = ?`, []any{"Oakland"}},
		{`SELECT id FROM jobs WHERE salary >= 110000`, nil},
		{`EXPLAIN SELECT id FROM jobs WHERE salary BETWEEN 100000 AND 104000`, nil},
		// Projection shapes.
		{`SELECT title AS t, city AS c FROM jobs WHERE id < 10`, nil},
		{`SELECT *, id FROM jobs WHERE id < 5`, nil},
		{`SELECT DISTINCT title FROM jobs`, nil},
		{`SELECT DISTINCT title, remote FROM jobs`, nil},
		// Joins (inner/left, aliased, flipped ON, ambiguous errors).
		{`SELECT j.title, c.name FROM jobs j JOIN companies c ON j.company_id = c.id`, nil},
		{`SELECT j.title, c.name FROM jobs j JOIN companies c ON c.id = j.company_id WHERE c.size = 'mid'`, nil},
		{`SELECT j.id, c.name FROM jobs j LEFT JOIN companies c ON j.company_id = c.id ORDER BY j.id`, nil},
		{`SELECT a.id, j.title, c.name FROM apps a JOIN jobs j ON a.job_id = j.id JOIN companies c ON j.company_id = c.id WHERE a.score > ?`, []any{50.0}},
		{`SELECT id FROM jobs j JOIN companies c ON j.company_id = c.id`, nil}, // ambiguous id
		// Aggregates: global, grouped, HAVING, DISTINCT args, expressions.
		{`SELECT COUNT(*) FROM jobs`, nil},
		{`SELECT COUNT(*), COUNT(salary), COUNT(DISTINCT city) FROM jobs`, nil},
		{`SELECT MIN(salary), MAX(salary), AVG(salary), SUM(salary) FROM jobs`, nil},
		{`SELECT SUM(score), AVG(score) FROM apps`, nil},
		{`SELECT COUNT(*) FROM jobs WHERE id > 1000`, nil}, // empty input
		{`SELECT SUM(salary), MIN(title) FROM jobs WHERE id > 1000`, nil},
		{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY city`, nil},
		{`SELECT city, title, COUNT(*) AS n FROM jobs GROUP BY city, title ORDER BY city, title`, nil},
		{`SELECT city, AVG(salary) AS a FROM jobs GROUP BY city HAVING COUNT(*) >= 5 ORDER BY city`, nil},
		{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city HAVING AVG(salary) > ? ORDER BY n DESC, city`, []any{100000}},
		{`SELECT status, SUM(score) FROM apps GROUP BY status ORDER BY status`, nil},
		{`SELECT c.size, COUNT(*) AS n FROM jobs j JOIN companies c ON j.company_id = c.id GROUP BY c.size ORDER BY n DESC, size`, nil},
		{`SELECT SUM(title) FROM jobs`, nil},                     // non-numeric SUM error
		{`SELECT city, SUM(title) FROM jobs GROUP BY city`, nil}, // same, grouped
		{`SELECT COUNT(DISTINCT salary), SUM(DISTINCT salary) FROM jobs`, nil},
		// ORDER BY / LIMIT / OFFSET, output and input keys, ties.
		{`SELECT id, salary FROM jobs ORDER BY salary DESC, id ASC`, nil},
		{`SELECT id FROM jobs ORDER BY salary DESC LIMIT 5`, nil},
		{`SELECT id FROM jobs ORDER BY salary DESC LIMIT 5 OFFSET 3`, nil},
		{`SELECT title FROM jobs ORDER BY salary DESC LIMIT 4`, nil}, // unprojected key
		{`SELECT id FROM jobs ORDER BY id LIMIT 0`, nil},
		{`SELECT id FROM jobs ORDER BY id OFFSET 55`, nil},
		{`SELECT id FROM jobs ORDER BY id OFFSET 100`, nil},
		{`SELECT id FROM jobs LIMIT 7`, nil},
		{`SELECT id FROM jobs LIMIT 7 OFFSET 58`, nil},
		{`SELECT id FROM jobs LIMIT 100`, nil},
		{`SELECT DISTINCT title FROM jobs ORDER BY title LIMIT 3`, nil},
		{`SELECT DISTINCT title FROM jobs LIMIT 2`, nil},
		{`SELECT DISTINCT city FROM jobs ORDER BY salary`, nil}, // static DISTINCT/ORDER BY error
		{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY n DESC, city LIMIT 2`, nil},
		{`SELECT city FROM jobs GROUP BY city ORDER BY salary`, nil}, // agg ORDER BY error
		// Error shapes: lazy and eager resolution.
		{`SELECT nope FROM jobs`, nil},
		{`SELECT id FROM jobs WHERE nope = 1`, nil},
		{`SELECT id FROM missing`, nil},
		{`SELECT id FROM jobs WHERE title = ?`, nil}, // missing param
		{`SELECT *, COUNT(*) FROM jobs`, nil},        // star with aggregate
		{`SELECT id FROM jobs ORDER BY COUNT(id)`, nil},
		{`SELECT city, COUNT(*) FROM jobs GROUP BY nope`, nil},
		{`SELECT j.title FROM jobs j JOIN companies c ON j.nope = c.id`, nil},
	}
	for _, c := range corpus {
		runBoth(t, db, c.sql, c.params...)
	}
}

// TestDifferentialFormerlyRefusedShapes covers every statement shape the
// compiler once refused and left to the interpreter: unresolvable and
// ambiguous references, missing tables, SELECT * with aggregates, an
// aggregated ORDER BY on a non-output key and DISTINCT with an input-row
// ORDER BY key. Each runs on an empty and on a populated fixture, since
// lazy errors fire only when a row evaluates the reference.
func TestDifferentialFormerlyRefusedShapes(t *testing.T) {
	fixtures := []struct {
		name string
		db   func(testing.TB) *DB
	}{
		{"empty", diffSchema},
		{"populated", func(t testing.TB) *DB { return diffDB(t, 41) }},
	}
	queries := []string{
		// Unknown column in the select list, WHERE, GROUP BY, HAVING,
		// ORDER BY and an aggregate argument.
		`SELECT nope FROM jobs`,
		`SELECT id, nope FROM jobs WHERE id < 5`,
		`SELECT id FROM jobs WHERE nope = 1`,
		`SELECT id FROM jobs WHERE city = 'Oakland' AND nope = 1`,
		`SELECT id FROM jobs WHERE city = 'Nowhere' AND nope = 1`,
		`SELECT id FROM jobs WHERE id = 1 OR nope = 1`,
		`SELECT city, COUNT(*) FROM jobs GROUP BY nope`,
		`SELECT city, COUNT(*) FROM jobs WHERE id > 1000 GROUP BY nope`,
		`SELECT city, COUNT(*) FROM jobs GROUP BY city, nope`,
		`SELECT city, COUNT(*) FROM jobs WHERE nope2 = 1 GROUP BY nope`,
		`SELECT city, COUNT(*) FROM jobs WHERE id < 5 OR nope2 = 1 GROUP BY nope`,
		`SELECT city, COUNT(*) FROM jobs GROUP BY city HAVING MAX(nope) > 1`,
		`SELECT SUM(nope) FROM jobs`,
		`SELECT id FROM jobs ORDER BY nope`,
		`SELECT id FROM jobs ORDER BY nope LIMIT 3`,
		`SELECT j.title FROM jobs j JOIN companies c ON j.nope = c.id`,
		`SELECT j.title FROM jobs j JOIN companies c ON c.nope = j.id`,
		`SELECT j.title, c.nope FROM jobs j JOIN companies c ON j.company_id = c.id`,
		// Ambiguous column.
		`SELECT id FROM jobs j JOIN companies c ON j.company_id = c.id`,
		`SELECT j.id FROM jobs j JOIN companies c ON j.company_id = c.id WHERE id > 3`,
		// Missing tables.
		`SELECT id FROM missing`,
		`SELECT j.id FROM jobs j JOIN missing m ON j.id = m.id`,
		`SELECT DISTINCT id FROM missing ORDER BY salary`,
		// SELECT * with an aggregate: raised after WHERE filtered every
		// row, so a WHERE error still wins.
		`SELECT *, COUNT(*) FROM jobs`,
		`SELECT *, COUNT(*) FROM jobs GROUP BY city`,
		`SELECT *, COUNT(*) FROM jobs GROUP BY nope`,
		`SELECT *, COUNT(*) FROM jobs WHERE nope = 1`,
		`SELECT *, COUNT(*) FROM jobs WHERE id < 5 OR nope = 1`,
		// Aggregated ORDER BY on a non-output key: raised at the sort,
		// after aggregation errors.
		`SELECT city FROM jobs GROUP BY city ORDER BY salary`,
		`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY n, salary`,
		`SELECT city, SUM(title) FROM jobs GROUP BY city ORDER BY salary`,
		`SELECT COUNT(*) FROM jobs ORDER BY salary`,
		// DISTINCT with an ORDER BY key outside the select list: a static
		// error whether or not DISTINCT drops a row.
		`SELECT DISTINCT city FROM jobs ORDER BY salary`,
		`SELECT DISTINCT id FROM jobs ORDER BY salary`,
		`SELECT DISTINCT city FROM jobs WHERE nope = 1 ORDER BY salary`,
		`SELECT DISTINCT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY salary`,
		`SELECT DISTINCT j.city FROM jobs j ORDER BY j.city`,
		`SELECT DISTINCT city AS c FROM jobs ORDER BY c`,
		`SELECT DISTINCT * FROM companies ORDER BY size, id`,
		// Error precedence of the fused scan: the oracle filters every
		// row, then projects the survivors, then evaluates ORDER BY keys
		// one key at a time, so a WHERE error on a later row beats a
		// projection error on an earlier one, and so on down.
		`SELECT nope FROM jobs WHERE id = 0 OR nope2 = 1`,
		`SELECT DISTINCT nope FROM jobs WHERE id = 0 OR nope2 = 1`,
		`SELECT nope FROM jobs WHERE id = 0 OR nope2 = 1 ORDER BY id`,
		`SELECT id FROM jobs WHERE id = 0 OR nope2 = 1 ORDER BY nope`,
		`SELECT id FROM jobs WHERE id = 0 OR nope2 = 1 ORDER BY nope LIMIT 1`,
		`SELECT id, id < 3 OR nope = 1 FROM jobs ORDER BY nope2`,
		`SELECT id FROM jobs ORDER BY id < 3 OR nope = 1, nope2`,
	}
	const distinctErr = `relational: for SELECT DISTINCT, ORDER BY key "salary" must appear in the select list`
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			db := fx.db(t)
			for _, sql := range queries {
				runBoth(t, db, sql)
			}
			for _, sql := range []string{
				`SELECT DISTINCT city FROM jobs ORDER BY salary`,
				`SELECT DISTINCT id FROM jobs ORDER BY salary LIMIT 3`,
			} {
				_, err := db.Query(sql)
				if err == nil || err.Error() != distinctErr {
					t.Fatalf("%s: err = %v, want %q", sql, err, distinctErr)
				}
			}

			// DML: each mutation runs on its own pair of databases and the
			// outcomes and final table states must agree.
			for _, sql := range []string{
				`UPDATE jobs SET salary = nope WHERE id = 3`,
				`UPDATE jobs SET salary = nope`,
				`UPDATE jobs SET nope = 1`,
				`UPDATE jobs SET salary = 1, nope = 2 WHERE nope3 = 3`,
				`UPDATE jobs SET salary = 1 WHERE nope = 1`,
				`UPDATE jobs SET salary = 1 WHERE nope = 1 AND city = 'Nowhere'`,
				`UPDATE missing SET a = 1`,
				`DELETE FROM jobs WHERE nope = 1`,
				`DELETE FROM jobs WHERE nope = 1 AND city = 'Nowhere'`,
				`DELETE FROM jobs WHERE city = 'Oakland' AND nope = 1`,
				`DELETE FROM jobs WHERE salary > 100000 OR nope = 1`,
				`DELETE FROM missing`,
				// An unbound parameter in a WHERE whose indexed conjunct
				// selects no row: the oracle's full scan raises it.
				`DELETE FROM jobs WHERE title = ? AND city = 'Nowhere'`,
				`DELETE FROM jobs WHERE city = 'Nowhere' AND title = ?`,
				`UPDATE jobs SET salary = 1 WHERE title = ? AND city = 'Nowhere'`,
				`UPDATE jobs SET salary = ? WHERE city = 'Nowhere'`,
				`INSERT INTO jobs VALUES (nope, 'x', 'y', 1, 2, TRUE)`,
			} {
				compiled, oracle := fx.db(t), fx.db(t)
				nc, errC := compiled.Exec(sql)
				no, errO := oracle.execOracle(sql)
				if fmt.Sprint(errC) != fmt.Sprint(errO) || nc != no {
					t.Fatalf("%s: compiled (%d, %v) vs oracle (%d, %v)", sql, nc, errC, no, errO)
				}
				a, err := compiled.Query(`SELECT * FROM jobs ORDER BY id`)
				if err != nil {
					t.Fatal(err)
				}
				b, err := oracle.queryOracle(`SELECT * FROM jobs ORDER BY id`)
				if err != nil {
					t.Fatal(err)
				}
				if len(a.Rows) != len(b.Rows) || (len(a.Rows) > 0 && !reflect.DeepEqual(a.Rows, b.Rows)) {
					t.Fatalf("%s: table states diverge", sql)
				}
			}

			// A missing table heals once it is created: the prepared plan
			// recompiles against the new schema version.
			st, err := db.Prepare(`SELECT a, COUNT(*) AS n FROM later GROUP BY a ORDER BY a`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Query(); err == nil || !strings.Contains(err.Error(), "table not found") {
				t.Fatalf("before CREATE: err = %v, want table not found", err)
			}
			mustExec(t, db, `CREATE TABLE later (a INT)`)
			mustExec(t, db, `INSERT INTO later VALUES (2), (1), (2)`)
			res, err := st.Query()
			if err != nil || len(res.Rows) != 2 || res.Rows[1][1].I != 2 {
				t.Fatalf("after CREATE: %v, %v", res, err)
			}
			runBoth(t, db, `SELECT a, COUNT(*) AS n FROM later GROUP BY a ORDER BY a`)
			mustExec(t, db, `DROP TABLE later`)
		})
	}
}

// TestDifferentialPropertyCorpus runs the randomized property-style corpus
// (random predicates, group keys, orderings and parameters over seeded data)
// through both executors.
func TestDifferentialPropertyCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		db := diffDB(t, int64(100+trial))
		cols := []string{"id", "title", "city", "company_id", "salary", "remote"}
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		randPred := func() (string, []any) {
			switch rng.Intn(5) {
			case 0:
				return fmt.Sprintf("salary %s ?", ops[rng.Intn(len(ops))]), []any{90000 + rng.Intn(30)*1000}
			case 1:
				return "city IN (?, ?)", []any{"Oakland", "Seattle"}
			case 2:
				return "salary BETWEEN ? AND ?", []any{92000 + rng.Intn(10)*1000, 100000 + rng.Intn(10)*1000}
			case 3:
				return "title LIKE ?", []any{"%" + string("admes"[rng.Intn(5)]) + "%"}
			default:
				return "city IS NOT NULL AND remote = ?", []any{rng.Intn(2) == 0}
			}
		}
		for q := 0; q < 40; q++ {
			pred, params := randPred()
			var sql string
			switch rng.Intn(4) {
			case 0:
				sql = fmt.Sprintf(`SELECT id, title, salary FROM jobs WHERE %s ORDER BY id`, pred)
			case 1:
				sql = fmt.Sprintf(`SELECT %s, COUNT(*) AS n, AVG(salary) AS a FROM jobs WHERE %s GROUP BY %s ORDER BY %s`,
					cols[1+rng.Intn(2)], pred, cols[1+rng.Intn(2)], cols[1+rng.Intn(2)])
				// GROUP BY column and projected column may differ: both
				// paths must agree even on the resulting error/first-row
				// semantics.
				sql = strings.ReplaceAll(sql, "GROUP BY title ORDER BY city", "GROUP BY title ORDER BY title")
				sql = strings.ReplaceAll(sql, "GROUP BY city ORDER BY title", "GROUP BY city ORDER BY city")
			case 2:
				sql = fmt.Sprintf(`SELECT DISTINCT title FROM jobs WHERE %s ORDER BY title LIMIT %d`, pred, 1+rng.Intn(5))
			default:
				sql = fmt.Sprintf(`SELECT j.id, c.name FROM jobs j LEFT JOIN companies c ON j.company_id = c.id WHERE %s ORDER BY j.id LIMIT %d OFFSET %d`,
					strings.ReplaceAll(strings.ReplaceAll(pred, "salary", "j.salary"), "city", "j.city"), 1+rng.Intn(20), rng.Intn(5))
			}
			runBoth(t, db, sql, params...)
		}
	}
}

// TestDifferentialDML: UPDATE/DELETE through compiled predicates must mutate
// exactly the same rows as the interpreted path.
func TestDifferentialDML(t *testing.T) {
	mutations := []struct {
		sql    string
		params []any
	}{
		{`UPDATE jobs SET salary = ? WHERE city = 'Oakland' AND salary < ?`, []any{123456, 100000}},
		{`UPDATE jobs SET remote = TRUE, title = 'Promoted' WHERE salary > ? OR city IS NULL`, []any{105000}},
		{`UPDATE jobs SET salary = NULL WHERE id BETWEEN 10 AND 20`, nil},
		{`DELETE FROM jobs WHERE title LIKE '%analyst%' OR salary IS NULL`, nil},
		{`DELETE FROM jobs WHERE id IN (1, 3, 5, ?)`, []any{7}},
	}
	compiled := diffDB(t, 31)
	interp := diffDB(t, 31)
	for _, m := range mutations {
		nc, errC := compiled.Exec(m.sql, m.params...)
		ni, errI := interp.execOracle(m.sql, m.params...)
		if (errC == nil) != (errI == nil) || nc != ni {
			t.Fatalf("%s: compiled (%d, %v) vs interpreted (%d, %v)", m.sql, nc, errC, ni, errI)
		}
		a, err := compiled.Query(`SELECT * FROM jobs ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interp.Query(`SELECT * FROM jobs ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Fatalf("%s: table states diverge", m.sql)
		}
	}
}

// TestCompiledPlanReusedAcrossExecutions: prepared statements compile once;
// repeated executions skip parse and compile.
func TestCompiledPlanReusedAcrossExecutions(t *testing.T) {
	db := diffDB(t, 5)
	db.ResetCacheStats()
	st, err := db.Prepare(`SELECT id, title FROM jobs WHERE salary > ? ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Query(90000 + i*500); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.CacheStats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d after 20 prepared executions, want 1", got)
	}
	// Query traffic on the same text shares the prepared slot via the
	// statement cache: still no recompilation.
	if _, err := db.Query(`SELECT id, title FROM jobs WHERE salary > ? ORDER BY id`, 95000); err != nil {
		t.Fatal(err)
	}
	if got := db.CacheStats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d after cached Query, want 1", got)
	}
}

// TestCompiledPlanDDLInvalidation: recreating a table with a different
// column order must recompile the plan — stale offsets would silently
// return wrong columns.
func TestCompiledPlanDDLInvalidation(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'one')`)
	st, err := db.Prepare(`SELECT b FROM t WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query()
	if err != nil || res.Rows[0][0].S != "one" {
		t.Fatalf("pre-DDL = %v, %v", res, err)
	}
	before := db.CacheStats().Compiles

	// Swap the column order under the same names.
	mustExec(t, db, `DROP TABLE t`)
	mustExec(t, db, `CREATE TABLE t (b TEXT, a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('two', 1)`)
	res, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "two" {
		t.Fatalf("post-DDL rows = %v (stale compiled offsets?)", res.Rows)
	}
	if after := db.CacheStats().Compiles; after <= before {
		t.Fatalf("Compiles %d -> %d: recreate did not recompile", before, after)
	}

	// Dropping the table turns the plan into the interpreted not-found error.
	mustExec(t, db, `DROP TABLE t`)
	if _, err := st.Query(); err == nil || !strings.Contains(err.Error(), "table not found") {
		t.Fatalf("err = %v, want table not found", err)
	}

	// A fallback shape (unknown column) must heal after the schema gains
	// the column.
	mustExec(t, db, `CREATE TABLE h (x INT)`)
	mustExec(t, db, `INSERT INTO h VALUES (1)`)
	sth, err := db.Prepare(`SELECT y FROM h`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sth.Query(); err == nil {
		t.Fatal("expected unknown column error")
	}
	mustExec(t, db, `DROP TABLE h`)
	mustExec(t, db, `CREATE TABLE h (y TEXT)`)
	mustExec(t, db, `INSERT INTO h VALUES ('healed')`)
	res, err = sth.Query()
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "healed" {
		t.Fatalf("healed query = %v, %v", res, err)
	}
}

// TestCompiledIndexPickupWithoutRecompile: CREATE INDEX must not invalidate
// compiled plans (offsets are unchanged) yet the access path must start
// using the new index, because planAccess runs at execution time.
func TestCompiledIndexPickupWithoutRecompile(t *testing.T) {
	db := diffDB(t, 11)
	// Prepared as EXPLAIN so each execution reports the access path it chose
	// (plan strings render only under EXPLAIN); the property under test —
	// execution-time access planning against a fixed compiled program — is
	// identical for the plain SELECT.
	st, err := db.Prepare(`EXPLAIN SELECT id FROM apps WHERE status = 'offer'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query()
	if err != nil || !strings.Contains(res.Plan, "SeqScan") {
		t.Fatalf("pre-index plan = %q (%v)", res.Plan, err)
	}
	db.ResetCacheStats()
	mustExec(t, db, `CREATE INDEX idx_status ON apps (status)`)
	res, err = st.Query()
	if err != nil || !strings.Contains(res.Plan, "IndexScan") {
		t.Fatalf("post-index plan = %q (%v)", res.Plan, err)
	}
	if got := db.CacheStats().Compiles; got != 0 {
		t.Fatalf("CREATE INDEX forced %d recompiles of the prepared plan, want 0", got)
	}
}

// TestSharedPreparedStmtConcurrency races many goroutines over one shared
// prepared statement while DDL churns other tables (forcing concurrent
// recompile checks) — run under -race by tier-1.
func TestSharedPreparedStmtConcurrency(t *testing.T) {
	db := diffDB(t, 17)
	queries := []*Stmt{}
	for _, sql := range []string{
		`SELECT id, title FROM jobs WHERE salary > ? ORDER BY id LIMIT 10`,
		`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY city`,
		`SELECT j.id, c.name FROM jobs j JOIN companies c ON j.company_id = c.id WHERE c.size = ?`,
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, st)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 0:
					if _, err := queries[0].Query(90000 + i*100); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := queries[1].Query(); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := queries[2].Query("mid"); err != nil {
						errs <- err
						return
					}
				case 3:
					name := fmt.Sprintf("scratch_%d_%d", w, i)
					if _, err := db.Exec(`CREATE TABLE ` + name + ` (a INT)`); err != nil {
						errs <- err
						return
					}
					if _, err := db.Exec(`DROP TABLE ` + name); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedPreparedStmtAcrossTargetDDL races executions of one prepared
// statement against DROP/CREATE of its own table: every execution must see
// either a coherent old-schema or new-schema result (or a clean not-found
// error), never a torn read or panic.
func TestSharedPreparedStmtAcrossTargetDDL(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE flip (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO flip VALUES (1, 'x')`)
	st, err := db.Prepare(`SELECT * FROM flip`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = db.Exec(`DROP TABLE flip`)
			if i%2 == 0 {
				_, _ = db.Exec(`CREATE TABLE flip (a INT, b TEXT)`)
			} else {
				_, _ = db.Exec(`CREATE TABLE flip (b TEXT, a INT, c BOOL)`)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		res, err := st.Query()
		if err != nil {
			if !strings.Contains(err.Error(), "table not found") {
				t.Fatalf("unexpected error: %v", err)
			}
			continue
		}
		if len(res.Columns) != 2 && len(res.Columns) != 3 {
			t.Fatalf("torn schema read: columns = %v", res.Columns)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAppendValueKeyMatchesKeyEquivalence: the binary encoder must induce
// exactly the equality classes of Value.Key (ints unify with integral
// floats, strings with embedded NULs and tag bytes cannot collide).
func TestAppendValueKeyMatchesKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(3), NewInt(-3), NewInt(1 << 40),
		NewFloat(3), NewFloat(3.5), NewFloat(-3), NewFloat(0),
		NewString(""), NewString("3"), NewString("i:3"), NewString("a\x00b"), NewString("a"), NewString("b\x00"),
	}
	for i := 0; i < 200; i++ {
		vals = append(vals, genValue(uint8(rng.Intn(5)), rng.Int63(), rng.Float64()*1e3, fmt.Sprintf("s%d\x00%d", rng.Intn(9), rng.Intn(9)), rng.Intn(2) == 0))
	}
	for _, a := range vals {
		for _, b := range vals {
			ka := string(appendValueKey(nil, a))
			kb := string(appendValueKey(nil, b))
			if (a.Key() == b.Key()) != (ka == kb) {
				t.Fatalf("key equivalence mismatch: %#v vs %#v (Key %q/%q, binary %x/%x)",
					a, b, a.Key(), b.Key(), ka, kb)
			}
		}
	}
	// Multi-value keys must not collide across value boundaries.
	r1 := Row{NewString("a\x00"), NewString("b")}
	r2 := Row{NewString("a"), NewString("\x00b")}
	if string(appendRowKey(nil, r1)) == string(appendRowKey(nil, r2)) {
		t.Fatal("row keys collide across value boundaries")
	}
}
