package edtrace

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryFlagHasARow keeps docs/architecture.md's flag table honest:
// every flag a command's main.go defines has a `-name` row under that
// command, every row names a flag that exists, and the table's "N in
// all" is the number of flags.
func TestEveryFlagHasARow(t *testing.T) {
	code := commandFlags(t)
	doc, total := documentedFlags(t)
	n := 0
	for cmd, flags := range code {
		n += len(flags)
		for _, f := range flags {
			if !doc[cmd][f] {
				t.Errorf("%s -%s has no row in docs/architecture.md's flag table", cmd, f)
			}
		}
	}
	for cmd, flags := range doc {
		for f := range flags {
			if !slices.Contains(code[cmd], f) {
				t.Errorf("docs/architecture.md documents %s -%s, which %s does not define", cmd, f, cmd)
			}
		}
	}
	if total != n {
		t.Errorf("docs/architecture.md says %d flags in all; the commands define %d", total, n)
	}
}

// commandFlags maps each command under cmd/ to the names of the flags
// its main.go defines with the flag package's top-level functions or
// the methods of a FlagSet named fs.
func commandFlags(t *testing.T) map[string][]string {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go (%v)", err)
	}
	out := make(map[string][]string)
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		out[cmd] = nil
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Flags are defined on the flag package or, in a command
			// whose main calls run(args, …), on its FlagSet fs.
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "flag" && recv.Name != "fs" || sel.Sel.Name == "NewFlagSet" {
				return true
			}
			// A flag's name is its definition's first string argument:
			// flag.String("name", …), flag.StringVar(&v, "name", …).
			var lit *ast.BasicLit
			for _, a := range call.Args {
				if l, ok := a.(*ast.BasicLit); ok && l.Kind == token.STRING {
					lit = l
					break
				}
			}
			if lit == nil {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out[cmd] = append(out[cmd], name)
			return true
		})
	}
	return out
}

// documentedFlags reads the flag table of docs/architecture.md: each
// command's `-name`s from the flag column of its rows (a row with an
// empty command cell continues the command above it), and the "N in
// all" count stated before the table.
func documentedFlags(t *testing.T) (map[string]map[string]bool, int) {
	t.Helper()
	b, err := os.ReadFile("docs/architecture.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	m := regexp.MustCompile(`(\d+) in all`).FindStringSubmatch(text)
	if m == nil {
		t.Fatal(`docs/architecture.md states no "N in all" flag count`)
	}
	total, _ := strconv.Atoi(m[1])

	name := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	doc := make(map[string]map[string]bool)
	cmd := ""
	for _, cells := range docTable(t, text, "| command | flag | sets | justified by |") {
		if c := strings.Trim(cells[0], "`"); c != "" {
			cmd = c
		}
		if doc[cmd] == nil {
			doc[cmd] = make(map[string]bool)
		}
		for _, f := range name.FindAllStringSubmatch(cells[1], -1) {
			doc[cmd][f[1]] = true
		}
	}
	return doc, total
}

// docTable returns the trimmed cells of each row of the markdown table
// that header opens in text, up to the first line that is not a row.
func docTable(t *testing.T, text, header string) [][]string {
	t.Helper()
	i := strings.Index(text, header)
	if i < 0 {
		t.Fatalf("docs/architecture.md has no %q table", header)
	}
	want := strings.Count(header, "|") - 1
	var rows [][]string
	for _, line := range strings.Split(text[i:], "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) != want+2 {
			t.Fatalf("table row %q has %d cells, want %d", line, len(cells)-2, want)
		}
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		rows = append(rows, cells[1:want+1])
	}
	return rows
}

// TestEveryPackageHasARow keeps docs/architecture.md's census honest:
// every directory under internal/ and cmd/ that holds a non-test Go file
// has a row, every row names such a directory, and each row's second
// cell names what earns the package its place — a Test, Benchmark or
// Fuzz function the module declares, a workload of BENCHMARK.json, or
// one of the paper's Figs 2–8. A test-like name that the module does not
// declare fails the row, so renaming a test breaks the row that cites it.
func TestEveryPackageHasARow(t *testing.T) {
	b, err := os.ReadFile("docs/architecture.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, tests := moduleCensus(t)
	workloads := benchWorkloads(t)
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	quoted := regexp.MustCompile("`([^`]+)`")
	figure := regexp.MustCompile(`\bFigs? [2-8]\b`)

	rowed := make(map[string]bool)
	for _, cells := range docTable(t, string(b), "| package | earns its place by |") {
		dir := strings.Trim(cells[0], "`")
		if rowed[dir] {
			t.Errorf("census: %s has two rows", dir)
		}
		rowed[dir] = true
		if !pkgs[dir] {
			t.Errorf("census: row %s names no package under internal/ or cmd/", dir)
		}
		earned := figure.MatchString(cells[1])
		for _, name := range testName.FindAllString(cells[1], -1) {
			if !tests[name] {
				t.Errorf("census: row %s cites %s, which the module does not declare", dir, name)
				continue
			}
			earned = true
		}
		for _, q := range quoted.FindAllStringSubmatch(cells[1], -1) {
			earned = earned || workloads[q[1]]
		}
		if !earned {
			t.Errorf("census: row %s names no test, workload or Fig 2–8", dir)
		}
	}
	for dir := range pkgs {
		if !rowed[dir] {
			t.Errorf("census: %s has no row in docs/architecture.md's census", dir)
		}
	}
}

// moduleCensus walks the module once. It returns the slash-separated
// directories under internal/ and cmd/ that hold a non-test Go file, and
// the names of the top-level functions of every test file, its Test,
// Benchmark and Fuzz functions among them.
func moduleCensus(t *testing.T) (pkgs, tests map[string]bool) {
	t.Helper()
	pkgs, tests = make(map[string]bool), make(map[string]bool)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil // scratch output of a concurrent benchmark run
		case err != nil:
			return err
		case d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		case !strings.HasSuffix(p, "_test.go"):
			dir := filepath.ToSlash(filepath.Dir(p))
			if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
				pkgs[dir] = true
			}
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages under internal/ or cmd/")
	}
	return pkgs, tests
}

// benchWorkloads returns the names of BENCHMARK.json's workloads.
func benchWorkloads(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	return names
}
