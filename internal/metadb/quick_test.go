package metadb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Property: GROUP BY + COUNT/SUM agree with a brute-force reference
// over random data.
func TestQuickGroupByAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Memory().Session()
		defer s.db.Close()
		if _, err := s.Exec(`CREATE TABLE t (g INT, v INT)`); err != nil {
			return false
		}
		type agg struct {
			count int64
			sum   int64
		}
		ref := map[int64]*agg{}
		n := r.Intn(120)
		for i := 0; i < n; i++ {
			g := int64(r.Intn(6))
			v := int64(r.Intn(100) - 50)
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, g, v)); err != nil {
				return false
			}
			a := ref[g]
			if a == nil {
				a = &agg{}
				ref[g] = a
			}
			a.count++
			a.sum += v
		}
		res, err := s.Exec(`SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g`)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(res.Rows) != len(ref) {
			t.Logf("seed %d: %d groups, want %d", seed, len(res.Rows), len(ref))
			return false
		}
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i, k := range keys {
			row := res.Rows[i]
			if row[0].Int != k || row[1].Int != ref[k].count || row[2].Int != ref[k].sum {
				t.Logf("seed %d: group %d = %v, want (%d,%d,%d)", seed, i, row, k, ref[k].count, ref[k].sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: an inner join equals the brute-force nested loop over both
// tables — same rows, same order — whether the joined table's key is
// unindexed (the executor's own nested loop) or a primary key or
// secondary-indexed (the index probe), with NULL and duplicate keys on
// both sides.
func TestQuickJoinAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Memory().Session()
		defer s.db.Close()
		index := r.Intn(3)
		keyDef := [...]string{"k INT", "k INT PRIMARY KEY", "k INT"}[index]
		for _, ddl := range []string{`CREATE TABLE a (k INT, x INT)`, `CREATE TABLE b (` + keyDef + `, y INT)`} {
			if _, err := s.Exec(ddl); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		if index == 2 {
			if _, err := s.Exec(`CREATE INDEX b_k ON b (k)`); err != nil {
				return false
			}
		}
		key := func() Value {
			if r.Intn(5) == 0 {
				return Null()
			}
			return I(int64(r.Intn(6)))
		}
		type row struct{ k, v Value }
		var as, bs []row
		for i := r.Intn(20); i > 0; i-- {
			as = append(as, row{key(), I(int64(len(as)))})
		}
		fresh := r.Perm(12) // distinct keys for the PRIMARY KEY case
		for i := r.Intn(12); i > 0; i-- {
			k := key()
			if index == 1 {
				k = I(int64(fresh[len(bs)]) - 3)
			}
			bs = append(bs, row{k, I(int64(100 + len(bs)))})
		}
		for table, rows := range map[string][]row{"a": as, "b": bs} {
			for _, rr := range rows {
				if _, err := s.Exec(`INSERT INTO `+table+` VALUES (?, ?)`, rr.k, rr.v); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
		}
		var want [][]Value
		for _, ra := range as {
			for _, rb := range bs {
				if !ra.k.IsNull() && !rb.k.IsNull() && ra.k.Int == rb.k.Int {
					want = append(want, []Value{ra.k, ra.v, rb.v})
				}
			}
		}

		on := [...]string{`a.k = b.k`, `b.k = a.k`, `a.k = b.k AND 1 = 1`}[r.Intn(3)]
		res, err := s.Exec(`SELECT a.k, a.x, b.y FROM a JOIN b ON ` + on)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(res.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Rows, want)) {
			t.Logf("seed %d (index %d, ON %s): rows %v, want %v", seed, index, on, res.Rows, want)
			return false
		}
		plan, err := s.Exec(`EXPLAIN SELECT a.k FROM a JOIN b ON ` + on)
		if err != nil {
			return false
		}
		probed := strings.HasPrefix(plan.Rows[1][0].Str, "INDEX NESTED LOOP JOIN b BY ")
		if wantProbe := index != 0 && !strings.Contains(on, "AND"); probed != wantProbe {
			t.Logf("seed %d (index %d, ON %s): plan %v", seed, index, on, plan.Rows)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser and executor never panic on arbitrary garbage
// (they must fail gracefully).
func TestQuickParserNeverPanics(t *testing.T) {
	words := []string{
		"SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
		"DELETE", "CREATE", "TABLE", "INDEX", "JOIN", "ON", "GROUP", "BY",
		"HAVING", "ORDER", "LIMIT", "AND", "OR", "NOT", "NULL", "t", "x", "y",
		"(", ")", ",", "*", "=", "<", ">", "+", "-", "/", "'s'", "1", "2.5",
		"COUNT", "SUM", "DISTINCT", "IN", "LIKE", "IS", ";", "..", "\"q\"",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(14)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(words[r.Intn(len(words))])
			sb.WriteByte(' ')
		}
		s := Memory().Session()
		defer s.db.Close()
		_, _ = s.Exec(`CREATE TABLE t (x INT, y TEXT)`)
		_, _ = s.Exec(`INSERT INTO t VALUES (1, 'a')`)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("seed %d: panic on %q: %v", seed, sb.String(), p)
				}
			}()
			_, _ = s.Exec(sb.String())
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ORDER BY produces a non-decreasing sequence under Compare.
func TestQuickOrderBySorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Memory().Session()
		defer s.db.Close()
		if _, err := s.Exec(`CREATE TABLE t (v INT)`); err != nil {
			return false
		}
		for i := 0; i < r.Intn(60); i++ {
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, r.Intn(1000)-500)); err != nil {
				return false
			}
		}
		res, err := s.Exec(`SELECT v FROM t ORDER BY v`)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
