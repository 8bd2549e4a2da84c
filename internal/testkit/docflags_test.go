package testkit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagKinds are the flag.FlagSet constructors whose first string argument
// names a flag.
var flagKinds = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Bool": true, "Float64": true, "Duration": true,
}

// binaryFlags parses cmd/*/main.go and returns each binary's flag names:
// every fs.<Kind>("name", …) or flag.<Kind>("name", …) call. -h and -help
// are defined by the flag package for every binary.
func binaryFlags(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go under %s: %v", root, err)
	}
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{"h": true, "help": true}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagKinds[sel.Sel.Name] {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "fs" && recv.Name != "flag") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
		out[filepath.Base(filepath.Dir(path))] = flags
	}
	return out
}

var (
	// docFlag matches a flag token: one or two dashes and a name, after a
	// space or an opening bracket.
	docFlag = regexp.MustCompile(`(?:^|[\s(\[])--?([A-Za-z][A-Za-z0-9_-]*)`)
	// goTool matches a line prefix that hands the binary's package to the
	// go command (go test ./cmd/x -run …): the flags that follow are go's.
	goTool = regexp.MustCompile(`\bgo\s+(test|vet|build|list)\b[^|;&→` + "`" + `]*$`)
)

// docRunFlags returns every "<binary> … -flag" occurrence in text as
// "binary -flag (line N)", for flags the binary does not define. A run
// starts at a binary's name and stops at →, |, a backtick, ;, &, another
// binary's name or the end of the line (a line ending in \ continues).
func docRunFlags(text string, flags map[string]map[string]bool) []string {
	var names []string
	for b := range flags {
		names = append(names, regexp.QuoteMeta(b))
	}
	sort.Strings(names)
	binary := regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
	stop := regexp.MustCompile("→|\\||`|;|&|" + binary.String())

	var bad []string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		lineNo := i + 1
		line := lines[i]
		for strings.HasSuffix(strings.TrimRight(line, " "), `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(strings.TrimRight(line, " "), `\`) + " " + lines[i]
		}
		for _, m := range binary.FindAllStringSubmatchIndex(line, -1) {
			name := line[m[2]:m[3]]
			if goTool.MatchString(line[:m[0]]) {
				continue
			}
			rest := line[m[1]:]
			if s := stop.FindStringIndex(rest); s != nil {
				rest = rest[:s[0]]
			}
			for _, f := range docFlag.FindAllStringSubmatch(rest, -1) {
				if !flags[name][f[1]] {
					bad = append(bad, name+" -"+f[1]+" (line "+strconv.Itoa(lineNo)+")")
				}
			}
		}
	}
	return bad
}

// TestDocsNameOnlyDefinedFlags: every binary run the prose documents
// (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md) passes only flags the
// binary defines, so a deleted flag cannot live on in the docs.
func TestDocsNameOnlyDefinedFlags(t *testing.T) {
	root := filepath.Join("..", "..")
	flags := binaryFlags(t, root)
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		docs = append(docs, filepath.Join(root, name))
	}
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, hit := range docRunFlags(string(text), flags) {
			t.Errorf("%s: %s: flag not defined by the binary", filepath.Base(path), hit)
		}
	}
}

// TestDocRunFlagsScan pins the run grammar on small inputs.
func TestDocRunFlagsScan(t *testing.T) {
	flags := map[string]map[string]bool{
		"ncgen":    {"out": true},
		"ncimport": {"in": true, "scores": true},
	}
	for _, tc := range []struct {
		text string
		want int
	}{
		{"ncgen -out d", 0},
		{"ncgen -out d -bogus", 1},
		{"go run ./cmd/ncgen --bogus=1", 1},
		{"ncgen → ncimport -scores", 0},
		{"ncgen -out d → scored with -scores", 0},
		{"ncgen -out d | grep -c x", 0},
		{"`ncgen` with -bogus", 0},
		{"ncgen -out d; ls -l", 0},
		{"ncgen -out d && ls -l", 0},
		{"ncgen -out d ncimport -scores", 0},
		{"ncgen -out d \\\n  -bogus", 1},
		{"ncgen -out d\nls -l", 0},
		{"go test ./cmd/ncgen -run TestX", 0},
		{"a multi-year ncgen run", 0},
	} {
		if got := docRunFlags(tc.text, flags); len(got) != tc.want {
			t.Errorf("%q: %v, want %d hits", tc.text, got, tc.want)
		}
	}
}
