package fluodb_test

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fluodb"
	"fluodb/workloads"
)

func smallDB(t *testing.T) *fluodb.DB {
	t.Helper()
	db := fluodb.Open()
	tab := db.CreateTable("sessions", fluodb.NewSchema(
		"session_id", fluodb.KindInt,
		"buffer_time", fluodb.KindFloat,
		"play_time", fluodb.KindFloat,
	))
	for i := 0; i < 6; i++ {
		err := tab.Append(fluodb.Row{
			fluodb.Int(int64(i + 1)),
			fluodb.Float(float64(10 * (i + 1))),
			fluodb.Float(float64(100 * (i + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOpenCreateQuery(t *testing.T) {
	db := smallDB(t)
	res, err := db.Query("SELECT COUNT(*), AVG(play_time) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := res.Rows[0][0].AsFloat(); c != 6 {
		t.Errorf("count = %v", c)
	}
	if a, _ := res.Rows[0][1].AsFloat(); a != 350 {
		t.Errorf("avg = %v", a)
	}
	if res.Schema[0].Name != "COUNT(*)" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestSBIThroughPublicAPI(t *testing.T) {
	db := smallDB(t)
	res, err := db.Query(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 500 {
		t.Errorf("SBI = %v, want 500", got)
	}
}

func TestTableManagement(t *testing.T) {
	db := smallDB(t)
	if names := db.TableNames(); len(names) != 1 || names[0] != "sessions" {
		t.Errorf("names = %v", names)
	}
	tab, ok := db.Table("SESSIONS")
	if !ok || tab.NumRows() != 6 {
		t.Fatal("case-insensitive lookup")
	}
	if tab.Schema().ColumnIndex("play_time") != 2 {
		t.Error("schema")
	}
	if !db.DropTable("sessions") {
		t.Error("drop")
	}
	if _, err := db.Query("SELECT 1 FROM sessions"); err == nil {
		t.Error("query after drop should fail")
	}
}

func TestCSVRoundTripPublic(t *testing.T) {
	db := smallDB(t)
	tab, _ := db.Table("sessions")
	var buf bytes.Buffer
	if err := tab.SaveCSV(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := fluodb.Open()
	tab2, err := db2.LoadCSV("sessions", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.NumRows() != 6 {
		t.Errorf("rows = %d", tab2.NumRows())
	}
}

func TestShuffleKeepsRows(t *testing.T) {
	db := smallDB(t)
	tab, _ := db.Table("sessions")
	tab.Shuffle(42)
	res, err := db.Query("SELECT SUM(play_time) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 2100 {
		t.Errorf("sum after shuffle = %v", got)
	}
}

func TestExplainShowsBlocks(t *testing.T) {
	db := smallDB(t)
	out, err := db.Explain(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "block 0 (scalar)") || !strings.Contains(out, "block 1 (root)") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestQueryOnlinePublic(t *testing.T) {
	db := fluodb.Open()
	workloads.AttachConviva(db, 3000, 5)
	exact, err := db.Query(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := exact.Rows[0][0].AsFloat()

	oq, err := db.QueryOnline(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
		fluodb.OnlineOptions{Batches: 10, Trials: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	var last *fluodb.Snapshot
	for !oq.Done() {
		s, err := oq.Step()
		if err != nil {
			t.Fatal(err)
		}
		last = s
		steps++
		if want := !oq.Done(); s.Rows[0][0].HasCI != want {
			t.Fatalf("batch %d: HasCI = %v, want %v (only the exact final answer has none)", s.Batch, s.Rows[0][0].HasCI, want)
		}
	}
	if steps != 10 || oq.Batch() != 10 {
		t.Errorf("steps = %d", steps)
	}
	got, _ := last.Rows[0][0].Value.AsFloat()
	if math.Abs(got-truth) > 1e-9 {
		t.Errorf("final = %v, want %v", got, truth)
	}
	if _, err := oq.Step(); err != fluodb.ErrDone {
		t.Errorf("err = %v, want ErrDone", err)
	}
	if oq.Metrics().Batches != 10 {
		t.Error("metrics")
	}
}

func TestQueryOnlineEarlyStop(t *testing.T) {
	db := fluodb.Open()
	workloads.AttachConviva(db, 2000, 6)
	oq, err := db.QueryOnline(`SELECT AVG(play_time) FROM sessions`,
		fluodb.OnlineOptions{Batches: 20, Trials: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	last, err := oq.Run(func(s *fluodb.Snapshot) bool {
		return s.RSD() > 0.005 // stop when accurate enough
	})
	if err != nil {
		t.Fatal(err)
	}
	if last == nil || oq.Batch() == 0 {
		t.Fatal("no snapshots")
	}
}

func TestRegisterUDFPublic(t *testing.T) {
	fluodb.RegisterFunc(&fluodb.ScalarFunc{
		Name: "CLAMP100", MinArgs: 1, MaxArgs: 1,
		Eval: func(args []fluodb.Value) fluodb.Value {
			f, ok := args[0].AsFloat()
			if !ok {
				return fluodb.Null
			}
			if f > 100 {
				f = 100
			}
			return fluodb.Float(f)
		},
	})
	db := smallDB(t)
	res, err := db.Query("SELECT SUM(CLAMP100(play_time)) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 600 {
		t.Errorf("sum of clamped = %v", got)
	}
}

func TestRegisterUDAFPublic(t *testing.T) {
	fluodb.RegisterAggregate("SUMSQ", func(params []fluodb.Value) (fluodb.AggState, error) {
		return &sumsq{}, nil
	})
	db := smallDB(t)
	res, err := db.Query("SELECT SUMSQ(buffer_time) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 + 400 + 900 + 1600 + 2500 + 3600
	if got, _ := res.Rows[0][0].AsFloat(); got != want {
		t.Errorf("sumsq = %v, want %v", got, want)
	}
	// UDAFs participate in online execution too.
	oq, err := db.QueryOnline("SELECT SUMSQ(buffer_time) FROM sessions",
		fluodb.OnlineOptions{Batches: 3, Trials: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	last, err := oq.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := last.Rows[0][0].Value.AsFloat(); got != want {
		t.Errorf("online sumsq = %v, want %v", got, want)
	}
}

type sumsq struct{ s float64 }

func (x *sumsq) Add(v fluodb.Value, w float64) {
	if f, ok := v.AsFloat(); ok {
		x.s += f * f * w
	}
}
func (x *sumsq) Merge(o fluodb.AggState)           { x.s += o.(*sumsq).s }
func (x *sumsq) Result(scale float64) fluodb.Value { return fluodb.Float(x.s * scale) }
func (x *sumsq) Clone() fluodb.AggState            { c := *x; return &c }

func TestWorkloadsSuiteExposed(t *testing.T) {
	suite := workloads.Suite()
	if len(suite) != 8 {
		t.Fatalf("suite size = %d", len(suite))
	}
	if q, ok := workloads.ByName("SBI"); !ok || q.Dataset != "conviva" {
		t.Error("ByName(SBI)")
	}
	db := fluodb.Open()
	workloads.AttachTPCH(db, 500, 10, 1)
	if _, ok := db.Table("partsupp"); !ok {
		t.Error("partsupp missing")
	}
	q17, _ := workloads.ByName("Q17")
	if _, err := db.Query(q17.SQL); err != nil {
		t.Errorf("Q17 on attached TPCH: %v", err)
	}
}

func TestQueryErrorsSurface(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Query("SELEC nope"); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := db.Query("SELECT nope FROM sessions"); err == nil {
		t.Error("bind error should surface")
	}
	if _, err := db.QueryOnline("SELECT session_id FROM sessions", fluodb.OnlineOptions{}); err == nil {
		t.Error("projection online should be rejected")
	}
	if _, err := db.Explain("SELECT * FROM nope"); err == nil {
		t.Error("explain error should surface")
	}
}

func TestSaveDirOpenDir(t *testing.T) {
	db := smallDB(t)
	dir := t.TempDir() + "/db"
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := fluodb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query("SELECT SUM(play_time) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 2100 {
		t.Errorf("sum after reopen = %v", got)
	}
	if _, err := fluodb.OpenDir(t.TempDir()); err == nil {
		t.Error("empty dir should fail")
	}
}

func TestExecDDLAndDML(t *testing.T) {
	db := fluodb.Open()
	if _, err := db.Exec(`CREATE TABLE metrics (id INT, name VARCHAR, score DOUBLE, ok BOOLEAN)`); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(`INSERT INTO metrics VALUES (1, 'a', 2.5, TRUE), (2, 'b', 1 + 0.5, FALSE)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 2 {
		t.Fatalf("affected = %d", r.RowsAffected)
	}
	// column-subset insert fills the rest with NULL
	if _, err := db.Exec(`INSERT INTO metrics (id, score) VALUES (3, ABS(-9))`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT COUNT(*), SUM(score), COUNT(name) FROM metrics`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Result.Rows[0]
	if c, _ := row[0].AsFloat(); c != 3 {
		t.Errorf("count = %v", c)
	}
	if s, _ := row[1].AsFloat(); s != 2.5+1.5+9 {
		t.Errorf("sum = %v", s)
	}
	if c, _ := row[2].AsFloat(); c != 2 {
		t.Errorf("count(name) = %v (NULL must not count)", c)
	}
	if _, err := db.Exec(`DROP TABLE metrics;`); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("metrics"); ok {
		t.Error("table should be dropped")
	}
}

func TestExecCoercionAndErrors(t *testing.T) {
	db := fluodb.Open()
	if _, err := db.Exec(`CREATE TABLE t (i INT, f DOUBLE, s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	// int literal into DOUBLE column, float into INT (truncates), int into VARCHAR
	if _, err := db.Exec(`INSERT INTO t VALUES (2.9, 3, 42)`); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec(`SELECT i, f, s FROM t`)
	row := res.Result.Rows[0]
	if row[0].Int() != 2 || row[1].Float() != 3 || row[2].Str() != "42" {
		t.Errorf("coerced row = %v", row)
	}

	bad := []string{
		`CREATE TABLE t (x INT)`,                         // already exists
		`CREATE TABLE u (x WIDGET)`,                      // unknown type
		`INSERT INTO nope VALUES (1)`,                    // unknown table
		`INSERT INTO t (zz) VALUES (1)`,                  // unknown column
		`INSERT INTO t VALUES (1, 2)`,                    // arity
		`INSERT INTO t VALUES ((SELECT 1 FROM t), 1, 2)`, // subquery
		`DROP TABLE nope`,
		`UPDATE t SET x = 1`,                   // unsupported statement
		`INSERT INTO t VALUES ('str', 1, 'x')`, // string into INT
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestExecSelectPassthrough(t *testing.T) {
	db := smallDB(t)
	r, err := db.Exec(`SELECT COUNT(*) FROM sessions;`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result == nil {
		t.Fatal("SELECT through Exec should return a result")
	}
	if c, _ := r.Result.Rows[0][0].AsFloat(); c != 6 {
		t.Errorf("count = %v", c)
	}
}

func TestExecScript(t *testing.T) {
	db := fluodb.Open()
	results, err := db.ExecScript(`
		CREATE TABLE pts (x INT, y DOUBLE);
		INSERT INTO pts VALUES (1, 1.5), (2, 2.5); -- two rows
		SELECT SUM(y) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].RowsAffected != 2 {
		t.Errorf("inserted = %d", results[1].RowsAffected)
	}
	if got, _ := results[2].Result.Rows[0][0].AsFloat(); got != 4 {
		t.Errorf("sum = %v", got)
	}
	// error mid-script returns partial results
	partial, err := db.ExecScript(`INSERT INTO pts VALUES (3, 3.5); SELECT nope FROM pts`)
	if err == nil {
		t.Fatal("bad script should fail")
	}
	if len(partial) != 1 {
		t.Errorf("partial results = %d", len(partial))
	}
}

func TestPublicTableAccessors(t *testing.T) {
	db := smallDB(t)
	tab, _ := db.Table("sessions")
	if tab.Name() != "sessions" {
		t.Error("Name")
	}
	if len(tab.Rows()) != 6 {
		t.Error("Rows")
	}
	dir := t.TempDir()
	path := dir + "/x.csv"
	if err := tab.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	db2 := fluodb.Open()
	t2, err := db2.LoadCSVFile("copy", path)
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 6 {
		t.Error("LoadCSVFile rows")
	}
	if _, err := db2.LoadCSVFile("x", dir+"/missing.csv"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestApproxCountDistinctEndToEnd(t *testing.T) {
	db := fluodb.Open()
	workloads.AttachConviva(db, 20000, 61)
	exact, err := db.Query("SELECT COUNT(DISTINCT user_id) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := db.Query("SELECT APPROX_COUNT_DISTINCT(user_id) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Rows[0][0].AsFloat()
	got, _ := approx.Rows[0][0].AsFloat()
	if math.Abs(got-want)/want > 0.07 {
		t.Errorf("approx = %v, exact = %v", got, want)
	}
	// online too
	oq, err := db.QueryOnline("SELECT APPROX_COUNT_DISTINCT(user_id) FROM sessions",
		fluodb.OnlineOptions{Batches: 5, Trials: 10, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	final, err := oq.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	gotOnline, _ := final.Rows[0][0].Value.AsFloat()
	if math.Abs(gotOnline-want)/want > 0.07 {
		t.Errorf("online approx = %v, exact = %v", gotOnline, want)
	}
}

// TestOnlineOptionsSurface pins the public option set to the controls a
// user sets. Test seams (the fault injector, the row-path reference and
// the pool part size) live on core.Seams, which this package cannot name.
func TestOnlineOptionsSurface(t *testing.T) {
	want := []string{"Batches", "Trials", "Confidence", "EpsilonSigma",
		"MinGroupSupport", "BootstrapSampleCap", "FullTables", "Parallelism",
		"Seed", "Profile", "MaxMemoryBytes"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(fluodb.OnlineOptions{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("OnlineOptions exports %v, want %v", got, want)
	}
}
