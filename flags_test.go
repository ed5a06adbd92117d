package edtrace

import (
	"go/ast"
	"go/parser"
	"go/token"
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

	const header = "| command | flag | sets | justified by |"
	i := strings.Index(text, header)
	if i < 0 {
		t.Fatalf("docs/architecture.md has no %q table", header)
	}
	name := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	doc := make(map[string]map[string]bool)
	cmd := ""
	for _, line := range strings.Split(text[i:], "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("flag table row %q", line)
		}
		if c := strings.Trim(strings.TrimSpace(cells[1]), "`"); c != "" {
			cmd = c
		}
		if doc[cmd] == nil {
			doc[cmd] = make(map[string]bool)
		}
		for _, f := range name.FindAllStringSubmatch(cells[2], -1) {
			doc[cmd][f[1]] = true
		}
	}
	return doc, total
}
