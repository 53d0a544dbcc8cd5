// Command doccheck is the repo's documentation lint, run by `make
// docs` and scripts/check.sh. It enforces four things with only the
// standard library:
//
//  1. Godoc coverage: every package under ./ and ./internal/... must
//     have a package comment, and every exported top-level identifier
//     (funcs, types, consts, vars, methods on exported types) must
//     have a doc comment.
//  2. Markdown link integrity: relative links in the repo's top-level
//     markdown files must point at files that exist.
//  3. Flag-table parity: every flag a command under cmd/ registers
//     must have a row in that command's README flag table, and every
//     row must name a registered flag — stale docs and undocumented
//     flags both fail.
//  4. Documented command lines: inside the fenced code blocks of
//     README, OPERATIONS, DESIGN and EXPERIMENTS, every -flag on a
//     dpfs-sh, dpfs-server, dpfs-meta or dpfs-bench command line must
//     name a flag that command registers.
//
// Any violation is printed as file:line and the process exits 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkGoDocs(root)...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkFlagTables(root)...)
	problems = append(problems, checkCommandLines(root)...)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// checkGoDocs walks every non-test Go file and reports missing package
// and exported-symbol documentation.
func checkGoDocs(root string) []string {
	var problems []string
	fset := token.NewFileSet()
	seenPkgDoc := map[string]bool{} // dir -> some file had a package comment

	var goFiles []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			goFiles = append(goFiles, path)
		}
		return nil
	})

	dirs := map[string][]*ast.File{}
	for _, path := range goFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: parse: %v", path, err))
			continue
		}
		dir := filepath.Dir(path)
		dirs[dir] = append(dirs[dir], f)
		if f.Doc != nil {
			seenPkgDoc[dir] = true
		}
		problems = append(problems, checkFileDocs(fset, path, f)...)
	}
	for dir, files := range dirs {
		if !seenPkgDoc[dir] {
			problems = append(problems,
				fmt.Sprintf("%s: package %s has no package comment", dir, files[0].Name.Name))
		}
	}
	return problems
}

// checkFileDocs reports exported top-level declarations of one file
// that lack a doc comment.
func checkFileDocs(fset *token.FileSet, path string, f *ast.File) []string {
	if f.Name.Name == "main" {
		// Commands document themselves at the package level; their
		// internals are not godoc surface.
		return nil
	}
	var problems []string
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", path, p.Line)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue // method on an unexported type
			}
			problems = append(problems, fmt.Sprintf("%s: exported %s is undocumented", pos(d), d.Name.Name))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						problems = append(problems, fmt.Sprintf("%s: exported type %s is undocumented", pos(s), s.Name.Name))
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped decl covers the
					// group (idiomatic for const/var blocks).
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							problems = append(problems, fmt.Sprintf("%s: exported %s is undocumented", pos(s), n.Name))
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedRecv reports whether a method receiver names an exported
// type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// flagTableIntro matches the line introducing a command's flag table
// in README.md, e.g. "`dpfs-meta` flags:". The table rows follow.
var flagTableIntro = regexp.MustCompile("^`([a-z0-9-]+)` flags:$")

// flagTableRow extracts the flag name from a README table row like
// "| `-meta ADDR` | 127.0.0.1:7700 | metadata database address |".
var flagTableRow = regexp.MustCompile("^\\| `-([a-zA-Z0-9-]+)")

// checkFlagTables cross-checks flag registrations in cmd/*/main.go
// against the per-command flag tables in README.md, in both
// directions: a registered flag missing from the table is an
// undocumented knob; a table row naming no registered flag is stale
// documentation.
func checkFlagTables(root string) []string {
	var problems []string
	readme := filepath.Join(root, "README.md")
	data, err := os.ReadFile(readme)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", readme, err)}
	}

	// README side: command -> flag name -> line number of its row.
	documented := map[string]map[string]int{}
	cmd := ""
	for i, line := range strings.Split(string(data), "\n") {
		if m := flagTableIntro.FindStringSubmatch(line); m != nil {
			cmd = m[1]
			documented[cmd] = map[string]int{}
			continue
		}
		if cmd == "" {
			continue
		}
		if m := flagTableRow.FindStringSubmatch(line); m != nil {
			documented[cmd][m[1]] = i + 1
		} else if strings.TrimSpace(line) != "" && !strings.HasPrefix(line, "|") {
			cmd = "" // table ended
		}
	}

	// Source side: every cmd/<name> package's flag registrations.
	cmdDir := filepath.Join(root, "cmd")
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		return append(problems, fmt.Sprintf("%s: %v", cmdDir, err))
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		registered := registeredFlags(filepath.Join(cmdDir, name), &problems)
		table := documented[name]
		if table == nil {
			if len(registered) > 0 {
				problems = append(problems,
					fmt.Sprintf("%s: no \"`%s` flags:\" table in README.md", readme, name))
			}
			continue
		}
		for flagName, pos := range registered {
			if _, ok := table[flagName]; !ok {
				problems = append(problems,
					fmt.Sprintf("%s: flag -%s of %s is missing from its README flag table", pos, flagName, name))
			}
		}
		for flagName, line := range table {
			if _, ok := registered[flagName]; !ok {
				problems = append(problems,
					fmt.Sprintf("%s:%d: README documents flag -%s that %s does not register", readme, line, flagName, name))
			}
		}
	}
	return problems
}

// flagFuncs are the flag-package constructors whose first argument is
// the flag name; the *Var and Func forms take the name second.
var flagFuncs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "TextVar": 1,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
	"Var": 1,
}

// registeredFlags parses a command directory's non-test Go files and
// returns flag name -> "file:line" of each flag registration.
func registeredFlags(dir string, problems *[]string) map[string]string {
	flags := map[string]string{}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		*problems = append(*problems, fmt.Sprintf("%s: %v", dir, err))
		return flags
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			*problems = append(*problems, fmt.Sprintf("%s: parse: %v", path, err))
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "flag" {
				return true
			}
			argIdx, ok := flagFuncs[sel.Sel.Name]
			if !ok || len(call.Args) <= argIdx {
				return true
			}
			lit, ok := call.Args[argIdx].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			flagName := strings.Trim(lit.Value, "`\"")
			p := fset.Position(call.Pos())
			flags[flagName] = fmt.Sprintf("%s:%d", path, p.Line)
			return true
		})
	}
	return flags
}

// commandDocs are the markdown files whose fenced command lines
// checkCommandLines holds to the commands' registered flags.
var commandDocs = []string{"README.md", "OPERATIONS.md", "DESIGN.md", "EXPERIMENTS.md"}

// checkCommandLines reports every -flag on a documented command line
// (a fenced code block's line, continued past lines that end in a
// backslash) that the command it follows does not register. A command
// line runs from the command's name, bare or as the last element of a
// path, to the next shell separator or comment.
func checkCommandLines(root string) []string {
	var problems []string
	registered := map[string]map[string]string{}
	for _, name := range []string{"dpfs-sh", "dpfs-server", "dpfs-meta", "dpfs-bench"} {
		registered[name] = registeredFlags(filepath.Join(root, "cmd", name), &problems)
	}
	for _, doc := range commandDocs {
		path := filepath.Join(root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		fenced, cmd := false, ""
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced, cmd = !fenced, ""
				continue
			}
			if !fenced {
				continue
			}
			var bad []string
			cmd, bad = unknownFlags(cmd, shellWords(strings.TrimSuffix(line, "\\")), registered)
			for _, b := range bad {
				problems = append(problems, fmt.Sprintf("%s:%d: %s", path, i+1, b))
			}
			if !strings.HasSuffix(line, "\\") {
				cmd = "" // the command line ends with its last physical line
			}
		}
	}
	return problems
}

// unknownFlags walks one line's words, continuing the command line of
// cmd ("" for none), and describes each flag that the command it
// belongs to does not register. It returns the command whose line is
// still open at the last word.
func unknownFlags(cmd string, words []string, registered map[string]map[string]string) (string, []string) {
	var bad []string
	for _, w := range words {
		if w == "|" || w == "||" || w == "&&" || w == ";" || w == "&" ||
			strings.HasPrefix(w, "#") || strings.ContainsAny(w[:1], "<>") || strings.HasPrefix(w, "2>") {
			cmd = ""
			continue
		}
		w = strings.Trim(w, "[]()")
		if base := w[strings.LastIndex(w, "/")+1:]; registered[base] != nil {
			cmd = base
			continue
		}
		name := strings.TrimLeft(w, "-")
		if cmd == "" || !strings.HasPrefix(w, "-") || name == "" || name[0] < 'a' || name[0] > 'z' {
			continue
		}
		name, _, _ = strings.Cut(name, "=")
		if _, ok := registered[cmd][name]; !ok && name != "h" && name != "help" {
			bad = append(bad, fmt.Sprintf("%s does not register -%s", cmd, name))
		}
	}
	return cmd, bad
}

// shellWords splits a line at blanks outside single and double quotes;
// quotes stay part of their word, so a quoted argument never reads as
// a flag.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			}
		case r == '\'' || r == '"':
			quote = r
		case r == ' ' || r == '\t':
			if cur.Len() > 0 {
				words = append(words, cur.String())
				cur.Reset()
			}
			continue
		}
		cur.WriteRune(r)
	}
	if cur.Len() > 0 {
		words = append(words, cur.String())
	}
	return words
}

// mdLink matches inline markdown links; bare URLs and reference-style
// links are out of scope.
var mdLink = regexp.MustCompile(`\]\(([^)#]+)(#[^)]*)?\)`)

// checkMarkdownLinks verifies that relative links in the top-level
// markdown files resolve to existing files.
func checkMarkdownLinks(root string) []string {
	var problems []string
	entries, err := os.ReadDir(root)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", root, err)}
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".md") {
			continue
		}
		path := filepath.Join(root, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := strings.TrimSpace(m[1])
				if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				resolved := filepath.Join(root, filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", path, i+1, target))
				}
			}
		}
	}
	return problems
}
