package fsnewtop_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// The knob census: KNOBS.md lists every settable value of the program with
// its class and the file that sets it, and TestKnobCensus fails the moment
// the list and the code disagree. Its preamble has the bar and the classes.

// knobClasses are the census's five classes.
var knobClasses = map[string]bool{
	"wiring":      true,
	"production":  true,
	"deployment":  true,
	"measurement": true,
	"seam":        true,
}

// optionDirs are the packages whose With* functions are settable values;
// flagDirs are the commands whose flags are.
var (
	optionDirs = map[string]bool{"cluster": true, "transport/netsim": true}
	flagDirs   = map[string]bool{"cmd/fsbench": true}
)

// scanKnobs returns every settable value in scope, by census name, with
// the identifier a file that sets it must mention:
//
//   - "pkg.Type.Field" for each exported field of an exported struct type
//     named *Config or *Options, or deploy.RunSpec (pkg is the directory's
//     last element);
//   - "pkg.WithX" for each With* function of the optionDirs packages;
//   - "fsbench -name" for each flag the flagDirs commands define.
//
// Test files and the benchmark module are out of scope.
func scanKnobs(fsys fs.FS) (map[string]string, error) {
	knobs := make(map[string]string)
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, src, 0)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		pkg := path.Base(dir)
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !inScopeType(dir, ts.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								knobs[pkg+"."+ts.Name.Name+"."+name.Name] = name.Name
							}
						}
					}
				}
			case *ast.FuncDecl:
				if optionDirs[dir] && decl.Recv == nil && strings.HasPrefix(decl.Name.Name, "With") && decl.Name.IsExported() {
					knobs[pkg+"."+decl.Name.Name] = decl.Name.Name
				}
			}
		}
		if flagDirs[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := flagName(n); ok {
					knobs[pkg+" -"+name] = "-" + name
				}
				return true
			})
		}
		return nil
	})
	return knobs, err
}

// inScopeType reports whether a type declared in dir is a census type.
func inScopeType(dir string, name *ast.Ident) bool {
	n := name.Name
	return name.IsExported() &&
		(strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") || (dir == "deploy" && n == "RunSpec"))
}

// flagName returns the name of the flag n defines, if n is a call
// flag.X("name", ...).
func flagName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// knobRow is one census row.
type knobRow struct {
	value, class, setBy string
	line                int
}

var backticked = regexp.MustCompile("`([^`]+)`")

// parseCensus reads the census table: every line of the form
// "| `value` | class | set by |" in the "## The census" section. The
// set-by file is the first backticked token of the last cell; the rest of
// the cell is free text.
func parseCensus(text string) []knobRow {
	var rows []knobRow
	inTable := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "## ") {
			inTable = strings.TrimSpace(line) == "## The census"
		}
		if !inTable || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		row := knobRow{line: i + 1}
		if len(cells) > 0 {
			row.value = strings.Trim(strings.TrimSpace(cells[0]), "`")
		}
		if len(cells) > 1 {
			row.class = strings.TrimSpace(cells[1])
		}
		if len(cells) > 2 {
			if m := backticked.FindStringSubmatch(cells[len(cells)-1]); m != nil {
				row.setBy = m[1]
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// checkCensus compares the census text with the source tree in fsys and
// returns every disagreement, sorted.
func checkCensus(fsys fs.FS, census string) []string {
	knobs, err := scanKnobs(fsys)
	if err != nil {
		return []string{fmt.Sprintf("scanning the source: %v", err)}
	}
	var problems []string
	listed := make(map[string]bool)
	for _, r := range parseCensus(census) {
		where := fmt.Sprintf("KNOBS.md:%d: %s", r.line, r.value)
		ident, exists := knobs[r.value]
		switch {
		case listed[r.value]:
			problems = append(problems, where+": listed twice")
		case !exists:
			problems = append(problems, where+": no such settable value in the source")
		}
		listed[r.value] = true
		switch {
		case !knobClasses[r.class]:
			problems = append(problems, fmt.Sprintf("%s: class %q is not one of the five", where, r.class))
		case exists && r.class != "wiring" && r.class != "deployment":
			if p := checkSetter(fsys, r, ident); p != "" {
				problems = append(problems, where+": "+p)
			}
		}
	}
	for v := range knobs {
		if !listed[v] {
			problems = append(problems, fmt.Sprintf("KNOBS.md: %s is settable but not in the census", v))
		}
	}
	sort.Strings(problems)
	return problems
}

// checkSetter checks a production, measurement or seam row's set-by file:
// it exists, is the kind of file the class names, and mentions ident.
func checkSetter(fsys fs.FS, r knobRow, ident string) string {
	if r.setBy == "" {
		return r.class + " row names no set-by file"
	}
	src, err := fs.ReadFile(fsys, r.setBy)
	if err != nil {
		return fmt.Sprintf("set-by file %s: %v", r.setBy, err)
	}
	test := strings.HasSuffix(r.setBy, "_test.go")
	switch r.class {
	case "production":
		if test || strings.HasPrefix(r.setBy, "examples/") || strings.HasPrefix(r.setBy, "cmd/fsdemo/") {
			return fmt.Sprintf("production set-by file %s is a test, an example or the demo", r.setBy)
		}
	case "measurement":
		if !test || !strings.Contains(string(src), "func Benchmark") {
			return fmt.Sprintf("measurement set-by file %s has no benchmark", r.setBy)
		}
	case "seam":
		if !test {
			return fmt.Sprintf("seam set-by file %s is not a test", r.setBy)
		}
	}
	mention := regexp.MustCompile(`(^|[^\w-])` + regexp.QuoteMeta(ident) + `($|[^\w-])`)
	if !mention.Match(src) {
		return fmt.Sprintf("set-by file %s does not mention %s", r.setBy, ident)
	}
	return ""
}

// TestKnobCensus keeps KNOBS.md and the code in agreement.
func TestKnobCensus(t *testing.T) {
	census, err := os.ReadFile("KNOBS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkCensus(os.DirFS("."), string(census)) {
		t.Error(p)
	}
	if t.Failed() {
		t.Log("KNOBS.md's preamble says how to add, reclassify or delete a value")
	}

	// The checker itself: each case breaks one rule of a census that is
	// otherwise true, and the checker must report it.
	src := fstest.MapFS{
		"pkg/config.go":   {Data: []byte("package pkg\n\ntype Config struct {\n\tName string\n\tSize int\n\thidden int\n}\n")},
		"pkg/run.go":      {Data: []byte("package pkg\n\nfunc run() Config { return Config{Name: \"x\", Size: 3} }\n")},
		"pkg/pkg_test.go": {Data: []byte("package pkg\n\ntype FakeConfig struct{ Out int }\n")}, // out of scope
	}
	good := "## The census\n\n| `pkg.Config.Name` | wiring | — |\n| `pkg.Config.Size` | production | `pkg/run.go` |\n"
	if p := checkCensus(src, good); len(p) != 0 {
		t.Fatalf("a true census was refused: %q", p)
	}
	cases := []struct {
		name   string
		src    fstest.MapFS
		census string
		want   string
	}{
		{
			name:   "unlisted field",
			src:    withFile(src, "pkg/more.go", "package pkg\n\ntype MoreOptions struct{ Depth int }\n"),
			census: good,
			want:   "pkg.MoreOptions.Depth is settable but not in the census",
		},
		{
			name:   "stale row",
			src:    src,
			census: good + "| `pkg.Config.Gone` | wiring | — |\n",
			want:   "pkg.Config.Gone: no such settable value",
		},
		{
			name:   "bad class",
			src:    src,
			census: strings.Replace(good, "| wiring |", "| convenience |", 1),
			want:   `class "convenience" is not one of the five`,
		},
		{
			name:   "set-by file does not mention the value",
			src:    withFile(src, "pkg/other.go", "package pkg\n\nvar size = 3\n"),
			census: strings.Replace(good, "`pkg/run.go`", "`pkg/other.go`", 1),
			want:   "set-by file pkg/other.go does not mention Size",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			problems := checkCensus(c.src, c.census)
			for _, p := range problems {
				if strings.Contains(p, c.want) {
					return
				}
			}
			t.Fatalf("checker reported %q, want a problem containing %q", problems, c.want)
		})
	}
}

// withFile returns a copy of fsys with one more file.
func withFile(fsys fstest.MapFS, name, data string) fstest.MapFS {
	out := make(fstest.MapFS, len(fsys)+1)
	for k, v := range fsys {
		out[k] = v
	}
	out[name] = &fstest.MapFile{Data: []byte(data)}
	return out
}
