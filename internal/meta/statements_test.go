package meta

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/stripe"
)

// One shape, three implementers, no fallback.
var (
	_ Execer = (*metadb.DB)(nil)
	_ Execer = (*metadb.Session)(nil)
	_ Execer = (*mdbnet.Client)(nil)
)

// catalogStatements lists every statement constant of the package with
// arguments that hit the rows of statementFixture and, for a SELECT,
// the access path EXPLAIN must report for it. TestStatementConstants
// fails when a constant is missing here.
var catalogStatements = []struct {
	name, sql string
	args      []metadb.Value
	plan      string
}{
	{name: "sqlBegin", sql: sqlBegin},
	{name: "sqlCommit", sql: sqlCommit},
	{name: "sqlRollback", sql: sqlRollback},
	{name: "sqlCreateServer", sql: sqlCreateServer},
	{name: "sqlCreateDistribution", sql: sqlCreateDistribution},
	{name: "sqlCreateGeneration", sql: sqlCreateGeneration},
	{name: "sqlIndexDistByFile", sql: sqlIndexDistByFile},
	{name: "sqlIndexDistByServer", sql: sqlIndexDistByServer},
	{name: "sqlCreateEntry", sql: sqlCreateEntry},
	{name: "sqlIndexEntryByParent", sql: sqlIndexEntryByParent},
	{name: "sqlCreateAttr", sql: sqlCreateAttr},
	{name: "sqlCreateHealth", sql: sqlCreateHealth},
	{name: "sqlSeedRoot", sql: sqlSeedRoot},
	{name: "sqlSeedGeneration", sql: sqlSeedGeneration},
	{name: "sqlBumpGeneration", sql: sqlBumpGeneration},
	{name: "sqlReadGeneration", sql: sqlReadGeneration, plan: "POINT LOOKUP dpfs_generation BY PRIMARY KEY (id)"},
	{name: "sqlUpdateServer", sql: sqlUpdateServer, args: []metadb.Value{num(9), num(2), str("h:1"), str("s0")}},
	{name: "sqlSeedServer", sql: sqlSeedServer, args: []metadb.Value{str("s9"), num(9), num(2), str("h:9")}},
	{name: "sqlDeleteServer", sql: sqlDeleteServer, args: []metadb.Value{str("s0")}},
	{name: "sqlListServers", sql: sqlListServers, plan: "SCAN dpfs_server"},
	{name: "sqlReadServer", sql: sqlReadServer, args: []metadb.Value{str("s0")}, plan: "POINT LOOKUP dpfs_server BY PRIMARY KEY (server_name)"},
	{name: "sqlSeedHealth", sql: sqlSeedHealth, args: []metadb.Value{str("s1"), str(StateAlive)}},
	{name: "sqlCountFailure", sql: sqlCountFailure, args: []metadb.Value{str("s0")}},
	{name: "sqlMoveHealth", sql: sqlMoveHealth, args: []metadb.Value{str(StateAlive), str("s0"), str(StateSuspect)}},
	{name: "sqlSetHealth", sql: sqlSetHealth, args: []metadb.Value{str(StateDead), str("s0")}},
	{name: "sqlResetHealth", sql: sqlResetHealth, args: []metadb.Value{str(StateAlive), str("s0")}},
	{name: "sqlListHealth", sql: sqlListHealth, plan: "SCAN dpfs_server_health"},
	{name: "sqlInsertEntry", sql: sqlInsertEntry, args: []metadb.Value{str("/e"), str("/"), str(kindDir)}},
	{name: "sqlDeleteEntry", sql: sqlDeleteEntry, args: []metadb.Value{str("/d/f")}},
	{name: "sqlMoveEntry", sql: sqlMoveEntry, args: []metadb.Value{str("/g"), str("/"), str("/d/f")}},
	{name: "sqlReadEntry", sql: sqlReadEntry, args: []metadb.Value{str("/d")}, plan: "POINT LOOKUP dpfs_dir_entry BY PRIMARY KEY (path)"},
	{name: "sqlListDir", sql: sqlListDir, args: []metadb.Value{str("/d")}, plan: "INDEX LOOKUP dpfs_dir_entry BY entry_by_parent (parent)"},
	{name: "sqlCountDir", sql: sqlCountDir, args: []metadb.Value{str("/d")}, plan: "INDEX LOOKUP dpfs_dir_entry BY entry_by_parent (parent)"},
	{name: "sqlInsertAttr", sql: sqlInsertAttr, args: []metadb.Value{
		str("/d/g"), str("me"), num(0o644), num(64), str("linear"), num(1), str("64"), num(16), str(""),
		str(""), str(""), str("roundrobin"), num(16), num(1)}},
	{name: "sqlInsertDist", sql: sqlInsertDist, args: []metadb.Value{str("s0"), str("/d/g"), num(0), num(2), str("0,1"), num(3)}},
	{name: "sqlReadAttr", sql: sqlReadAttr, args: []metadb.Value{str("/d/f")}, plan: "POINT LOOKUP dpfs_file_attr BY PRIMARY KEY (filename)"},
	{name: "sqlReadDist", sql: sqlReadDist, args: []metadb.Value{str("/d/f")}, plan: "INDEX LOOKUP dpfs_file_distribution BY dist_by_file (filename)"},
	{name: "sqlReadDistHome", sql: sqlReadDistHome, args: []metadb.Value{str("/d/f")}, plan: "INDEX LOOKUP dpfs_file_distribution BY dist_by_file (filename)"},
	{name: "sqlDeleteAttr", sql: sqlDeleteAttr, args: []metadb.Value{str("/d/f")}},
	{name: "sqlDeleteDist", sql: sqlDeleteDist, args: []metadb.Value{str("/d/f")}},
	{name: "sqlRenameAttr", sql: sqlRenameAttr, args: []metadb.Value{str("/d/g"), str("/d/f")}},
	{name: "sqlRenameDist", sql: sqlRenameDist, args: []metadb.Value{str("/d/g"), str("/d/f")}},
	{name: "sqlListFiles", sql: sqlListFiles, plan: "SCAN dpfs_file_attr"},
	{name: "sqlSetSize", sql: sqlSetSize, args: []metadb.Value{num(1), str("/d/f")}},
	{name: "sqlSetPerm", sql: sqlSetPerm, args: []metadb.Value{num(0o600), str("/d/f")}},
	{name: "sqlSetOwner", sql: sqlSetOwner, args: []metadb.Value{str("you"), str("/d/f")}},
	{name: "sqlUsageByServer", sql: sqlUsageByServer, plan: "SCAN dpfs_file_distribution"},
	{name: "sqlUsedBytes", sql: sqlUsedBytes, plan: "INDEX NESTED LOOP JOIN dpfs_file_attr BY PRIMARY KEY (filename)"},
	{name: "sqlFilesOnServer", sql: sqlFilesOnServer, args: []metadb.Value{str("s0")}, plan: "INDEX NESTED LOOP JOIN dpfs_file_attr BY PRIMARY KEY (filename)"},
	{name: "sqlCreateDirLists", sql: sqlCreateDirLists},
	{name: "sqlReadDirLists", sql: sqlReadDirLists, plan: "SCAN dpfs_directory (0 rows)"},
	{name: "sqlClearDirLists", sql: sqlClearDirLists},
}

// statementFixture is a database holding a small catalog with at least
// one row in every table: servers s0..s3 (s0 with a health row),
// directory /d and the four-server file /d/f.
func statementFixture(t testing.TB) *metadb.DB {
	t.Helper()
	db := metadb.Memory()
	t.Cleanup(func() { db.Close() })
	c := NewCatalog(db.Session())
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	fi := testFileInfo("/d/f")
	fi.Servers = []string{"s0", "s1", "s2", "s3"}
	for i, name := range fi.Servers {
		if err := c.RegisterServer(ServerInfo{Name: name, Capacity: 1 << 30, Performance: 1 + i%2, Addr: "h:" + name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReportServerFailure("s0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	gen, err := c.NextGeneration(fi.Path)
	if err != nil {
		t.Fatal(err)
	}
	fi.Generation = gen
	if err := createFile(c, fi, stripe4(fi)); err != nil {
		t.Fatal(err)
	}
	return db
}

// stripe4 deals fi's bricks round-robin over its servers.
func stripe4(fi FileInfo) []int {
	assign, _ := stripe.RoundRobin{}.Assign(fi.Geometry.NumBricks(), len(fi.Servers)) // errs only without servers
	return assign
}

// sqlText recognizes a string that holds a SQL statement.
var sqlText = regexp.MustCompile(`(?is)\b(select\s.+\sfrom|insert\s+(or\s+ignore\s+)?into|update\s+\w+\s+set|delete\s+from|(create|drop)\s+(table|index))\b`)

// TestStatementConstants is the build gate for the catalog's SQL. It
// reads the package's non-test source and requires that SQL text exists
// only in sql* constants (no quote(), no SQL handed to fmt.Sprintf, no
// SQL in any other string), that catalogStatements lists every one of
// them, and that each runs against the Init schema with its sample
// arguments — so a misspelt table, column or placeholder count fails
// here, not at first use — along the access path the table names.
func TestStatementConstants(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := map[string]bool{}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		inConst := map[ast.Node]bool{} // string literals that are sql* constant values
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				if n.Tok != token.CONST {
					break
				}
				for _, spec := range n.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "sql") {
							continue
						}
						declared[name.Name] = true
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							inConst[lit] = true
						} else {
							t.Errorf("%s: %s is not a single string literal", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && !inConst[n] {
					if text, err := strconv.Unquote(n.Value); err == nil && sqlText.MatchString(text) {
						t.Errorf("%s: SQL text outside the sql* constants: %s", fset.Position(n.Pos()), n.Value)
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "quote" {
					t.Errorf("%s: quote() is back", fset.Position(n.Pos()))
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
					for _, arg := range n.Args {
						if id, ok := arg.(*ast.Ident); ok && strings.HasPrefix(id.Name, "sql") {
							t.Errorf("%s: statement %s passed through fmt.Sprintf", fset.Position(n.Pos()), id.Name)
						}
					}
				}
			}
			return true
		})
	}
	for _, st := range catalogStatements {
		if !declared[st.name] {
			t.Errorf("catalogStatements lists %s, which the package does not declare", st.name)
		}
		delete(declared, st.name)
	}
	for name := range declared {
		t.Errorf("constant %s is missing from catalogStatements", name)
	}

	db := statementFixture(t)
	for _, st := range catalogStatements {
		batch := []metadb.Stmt{q(sqlBegin), q(st.sql, st.args...), q(sqlRollback)}
		switch st.name {
		case "sqlBegin":
			batch = batch[1:]
		case "sqlCommit", "sqlRollback":
			batch = batch[:2]
		}
		if _, err := db.Batch(batch); err != nil {
			t.Errorf("%s: %v", st.name, err)
		}
		if st.plan == "" {
			if strings.HasPrefix(st.sql, "SELECT") {
				t.Errorf("%s: a SELECT needs its expected access path", st.name)
			}
			continue
		}
		res, err := db.Exec("EXPLAIN "+st.sql, st.args...)
		if err != nil {
			t.Errorf("EXPLAIN %s: %v", st.name, err)
			continue
		}
		var plan []string
		for _, r := range res.Rows {
			plan = append(plan, r[0].Str)
		}
		if got := strings.Join(plan, "; "); !strings.Contains(got, st.plan) {
			t.Errorf("%s: plan %q, want %q", st.name, got, st.plan)
		}
	}
}

// dumpTables renders every table's rows, sorted, for comparison.
func dumpTables(t *testing.T, db *metadb.DB) []string {
	t.Helper()
	var out []string
	for _, name := range db.TableNames() {
		res, err := db.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			out = append(out, fmt.Sprint(name, r))
		}
	}
	sort.Strings(out)
	return out
}

// literalText renders a statement with its arguments written in as SQL
// literals — what the catalog sent before it had placeholders. None of
// the catalog's texts has a '?' inside a string literal.
func literalText(sql string, args []metadb.Value) string {
	parts := strings.Split(sql, "?")
	var sb strings.Builder
	for i, a := range args {
		sb.WriteString(parts[i])
		sb.WriteString(a.String())
	}
	sb.WriteString(parts[len(args)])
	return sb.String()
}

// Property: for every catalog statement, executing the constant text
// with arguments is indistinguishable from executing the text with the
// same values written in as literals (the path Parse has always had):
// same result or same error, same table contents afterwards. Arguments
// are drawn at random from keys the fixture holds, NULL, negative and
// huge integers and strings full of quotes and SQL punctuation, so they
// often have the wrong type too.
func TestQuickStatementsMatchLiteralSQL(t *testing.T) {
	pool := []metadb.Value{
		str("/"), str("/d"), str("/d/f"), str("s0"), str("s1"), str("s3"), str("f"), str("d"),
		str(StateAlive), str(StateSuspect), str("0,1,2"), str(""),
		num(0), num(1), num(2), num(-1), num(-7), num(int64(1) << 40), metadb.Null(),
		str("it's"), str("''"), str("a?b"), str("%"), str(`\`), str(";--"), str("naïve/ü"), str("x' OR '1'='1"),
	}
	r := rand.New(rand.NewSource(1))
	for _, st := range catalogStatements {
		switch st.name {
		case "sqlBegin", "sqlCommit", "sqlRollback":
			continue // no arguments, and they do not nest
		}
		bound, literal := statementFixture(t), statementFixture(t)
		n := strings.Count(st.sql, "?")
		if n != len(st.args) {
			t.Errorf("%s: %d placeholders, %d sample arguments", st.name, n, len(st.args))
			continue
		}
		for i := 0; i < 40; i++ {
			args := make([]metadb.Value, n)
			for j := range args {
				args[j] = pool[r.Intn(len(pool))]
				if r.Intn(3) == 0 {
					args[j] = st.args[j] // well-typed, so some executions succeed
				}
			}
			text := literalText(st.sql, args)
			gotRes, gotErr := bound.Exec(st.sql, args...)
			wantRes, wantErr := literal.Exec(text)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s with %v:\n  bound:   %v, %v\n  literal: %v, %v\n  text: %s",
					st.name, args, gotRes, gotErr, wantRes, wantErr, text)
			}
			if got, want := dumpTables(t, bound), dumpTables(t, literal); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s with %v: tables differ\n  bound:   %v\n  literal: %v", st.name, args, got, want)
			}
			if n == 0 {
				break
			}
		}
	}
}
