package analysis

import (
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// A tally is what a budget row counted, and where.
type tally struct {
	n  int
	at []string
}

func (c *tally) add(p *Package, pos token.Pos, what string) {
	position := p.Fset.Position(pos)
	c.n++
	c.at = append(c.at, fmt.Sprintf("%s:%d: %s", filepath.Base(position.Filename), position.Line, what))
}

// A budgetRow caps one count over a package's non-test Go; a ban is a
// row whose max is 0. A deletion that a later change must not undo
// adds a row here.
type budgetRow struct {
	pkg   string // import path; "" is every package of the module
	what  string
	count func(*Package) tally
	max   int
	why   string
}

var budget = []budgetRow{
	{"parallax", "Config fields", fields("Config"), 9,
		"the public knob surface is the knobs the entry points set"},
	{"parallax", "With* options", funcs("With"), 9,
		"the public knob surface is the knobs the entry points set"},
	{"parallax", "DistConfig fields", fields("DistConfig"), 6,
		"the public knob surface is the knobs the entry points set"},
	{"parallax", "RecoveryPolicy fields", fields("RecoveryPolicy"), 2,
		"the public knob surface is the knobs the entry points set"},
	{"parallax", "AutoCheckpointSpec fields", fields("AutoCheckpointSpec"), 2,
		"the public knob surface is the knobs the entry points set"},
	{"parallax/internal/transform", "go statements", goStmts, 5,
		"DESIGN.md §3: every goroutine a trainer runs is started by New (4 today, all in New)"},
	{"parallax/internal/transform", "wall-clock timer calls", wallTimers, 0,
		"the trainer's concurrency surface paces nothing by the wall clock"},
	{"parallax/internal/transform", "lines in the longest file", longestFile, 800,
		"the package's split by responsibility cannot regrow into one file"},
	{"parallax/internal/transform", "declarations named SetStep", declared("SetStep"), 0,
		"the session fires chaos faults itself, so the trainer keeps no SetStep hook"},
	{"parallax/internal/transport", "//parallax: pragmas", pragmas, 9,
		"wall-clock and lock exemptions in the transport stay few"},
	{"parallax/internal/transport", "go statements", goStmts, 2,
		"a connection's reader and heartbeat; the rendezvous runs on the caller's goroutine (DESIGN.md §8)"},
	{"parallax/internal/transport", "declarations named inboxKey", declared("inboxKey"), 0,
		"every link delivers into one queue per directed endpoint pair, so there is no per-tag inbox"},
	{"parallax/internal/transport", "map[…]chan message types", chanMaps("message"), 0,
		"every link delivers into one queue per directed endpoint pair, so there is no per-tag inbox"},
	{"", "PXJN magics", spells("PXJN"), 0,
		"membership stays out of the wire: a join is a record in the checkpoint root"},
	{"", "declarations named SeekBatch", declared("SeekBatch"), 0,
		"a Steps session's dataset position is its feed log, so datasets are plain forward streams"},
	{"", "declarations named Resumable", declared("Resumable"), 0,
		"a Steps session's dataset position is its feed log, so datasets are plain forward streams"},
	{"parallax/cmd/parallax-agent", "links to parallax/internal/engine", links("parallax/internal/engine"), 0,
		"the runtime trains on real steps; the paper model is for the paper tables and stays out of the agent binary"},
}

// TestBudget holds the tree to its budget: every cap and ban above,
// counted through go/ast and go/types over the self-test's load. Run it
// with -v to print the counts and the tree's line totals.
func TestBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module via go list -export")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, row := range budget {
		var got tally
		if row.pkg == "" {
			for _, p := range pkgs {
				c := row.count(p)
				got.n += c.n
				got.at = append(got.at, c.at...)
			}
		} else if p := byPath[row.pkg]; p != nil {
			got = row.count(p)
		} else {
			t.Errorf("%s: no such package in the module", row.pkg)
			continue
		}
		scope := cmp.Or(row.pkg, "module")
		t.Logf("%s: %s: %d (max %d)", scope, row.what, got.n, row.max)
		switch {
		case got.n > row.max:
			t.Errorf("%s: %d %s, over the budget of %d: %s\n\t%s",
				scope, got.n, row.what, row.max, row.why, strings.Join(got.at, "\n\t"))
		case got.n == 0 && row.max > 0:
			t.Errorf("%s: counted no %s; a cap over nothing passes forever, so if they are gone make the row a ban (max 0)",
				scope, row.what)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test Go lines outside bench/: %d (virtual-time plane: %d); hand-written assembly lines: %d; internal/transport: %d; internal/data: %d",
		sourceLines(t, root, ".go", "."),
		sourceLines(t, root, ".go", "internal/engine", "internal/models", "internal/experiments"),
		sourceLines(t, root, ".s", "."),
		sourceLines(t, root, ".go", "internal/transport"),
		sourceLines(t, root, ".go", "internal/data"))
}

// TestBudgetCounters pins each counter's exact count on the budget
// fixture: every cap is an upper bound, so a counter that silently
// counts nothing would pass forever.
func TestBudgetCounters(t *testing.T) {
	pkgs, err := Load("parallax/internal/analysis/testdata/src/budget")
	if err != nil {
		t.Fatal(err)
	}
	p := pkgs[0]
	for _, c := range []struct {
		what  string
		count func(*Package) tally
		want  int
	}{
		{"go statements", goStmts, 2},
		{"pragmas", pragmas, 1},
		{"wall-clock timer calls", wallTimers, 1},
		{"longest file", longestFile, 42},
		{"map[…]chan message types", chanMaps("message"), 1},
		{"inboxKey declarations", declared("inboxKey"), 1},
		{"SetStep declarations", declared("SetStep"), 1},
		{"Config fields", fields("Config"), 2},
		{"With* functions", funcs("With"), 1},
		{"PXJN magics", spells("PXJN"), 2},
		{"links to time", links("time"), 1},
		{"links to parallax/internal/engine", links("parallax/internal/engine"), 0},
	} {
		if got := c.count(p); got.n != c.want {
			t.Errorf("%s: counted %d, want %d: %v", c.what, got.n, c.want, got.at)
		}
	}
}

// goStmts counts go statements.
func goStmts(p *Package) tally {
	var c tally
	inspect(p, func(n ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok {
			c.add(p, g.Pos(), "go")
		}
	})
	return c
}

// pragmas counts //parallax: comments.
func pragmas(p *Package) tally {
	var c tally
	for _, f := range p.Files {
		for _, group := range f.Comments {
			for _, com := range group.List {
				if strings.HasPrefix(com.Text, "//"+pragmaPrefix) {
					c.add(p, com.Pos(), com.Text)
				}
			}
		}
	}
	return c
}

// timerFuncs are the time package's functions that wait on or schedule
// by the wall clock.
var timerFuncs = map[string]bool{"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Sleep": true, "Tick": true}

// wallTimers counts references to timerFuncs (methods such as
// time.Time.After are not timers).
func wallTimers(p *Package) tally {
	var c tally
	inspect(p, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		f, ok := p.Info.Uses[id].(*types.Func)
		if ok && f.Pkg() != nil && f.Pkg().Path() == "time" && timerFuncs[f.Name()] &&
			f.Type().(*types.Signature).Recv() == nil {
			c.add(p, id.Pos(), "time."+f.Name())
		}
	})
	return c
}

// longestFile counts the lines of the package's longest file.
func longestFile(p *Package) tally {
	var c tally
	for _, f := range p.Files {
		file := p.Fset.File(f.Pos())
		if n := file.LineCount(); n > c.n {
			c = tally{n: n, at: []string{filepath.Base(file.Name())}}
		}
	}
	return c
}

// chanMaps counts map types whose values are channels of the named
// type elem.
func chanMaps(elem string) func(*Package) tally {
	return func(p *Package) tally {
		var c tally
		inspect(p, func(n ast.Node) {
			mt, ok := n.(*ast.MapType)
			if !ok {
				return
			}
			m, _ := p.Info.Types[mt].Type.(*types.Map)
			if m == nil {
				return
			}
			if ch, ok := m.Elem().Underlying().(*types.Chan); ok {
				if named, ok := types.Unalias(ch.Elem()).(*types.Named); ok && named.Obj().Name() == elem {
					c.add(p, mt.Pos(), types.TypeString(m, types.RelativeTo(p.Types)))
				}
			}
		})
		return c
	}
}

// declared counts declarations of anything named name: a type, a func
// or method, a field, a variable.
func declared(name string) func(*Package) tally {
	return func(p *Package) tally {
		var c tally
		inspect(p, func(n ast.Node) {
			if id, ok := n.(*ast.Ident); ok && id.Name == name && p.Info.Defs[id] != nil {
				c.add(p, id.Pos(), name)
			}
		})
		return c
	}
}

// fields counts the exported fields of the named struct type, as its
// go doc listing shows them: `A, B int` is two.
func fields(name string) func(*Package) tally {
	return func(p *Package) tally {
		var c tally
		tn, _ := p.Types.Scope().Lookup(name).(*types.TypeName)
		if tn == nil {
			return c
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if v := st.Field(i); v.Exported() {
					c.add(p, v.Pos(), name+"."+v.Name())
				}
			}
		}
		return c
	}
}

// funcs counts the package's exported functions whose names start with
// prefix.
func funcs(prefix string) func(*Package) tally {
	return func(p *Package) tally {
		var c tally
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if f, ok := scope.Lookup(name).(*types.Func); ok && f.Exported() && strings.HasPrefix(name, prefix) {
				c.add(p, f.Pos(), name)
			}
		}
		return c
	}
}

// spells counts string literals that contain word and composite
// literals whose constant elements spell it, as [4]byte{'P', 'X', 'J',
// 'N'} does.
func spells(word string) func(*Package) tally {
	return func(p *Package) tally {
		var c tally
		inspect(p, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && strings.Contains(s, word) {
					c.add(p, n.Pos(), n.Value)
				}
			case *ast.CompositeLit:
				var elts []byte
				for _, e := range n.Elts {
					v, _ := constant.Int64Val(constant.ToInt(p.Info.Types[e].Value))
					elts = append(elts, byte(v))
				}
				if bytes.Contains(elts, []byte(word)) {
					c.add(p, n.Pos(), word)
				}
			}
		})
		return c
	}
}

// links counts target among the packages p links, by go list -deps.
// A failed listing counts as a link, so the ban fails closed.
func links(target string) func(*Package) tally {
	return func(p *Package) tally {
		deps, err := goList(p.Dir, "-deps", "-json=ImportPath", p.Path)
		if err != nil {
			return tally{n: 1, at: []string{err.Error()}}
		}
		var c tally
		for _, d := range deps {
			if d.ImportPath == target {
				c.n++
				c.at = append(c.at, p.Path+" links "+target)
			}
		}
		return c
	}
}

// inspect walks every node of the package's files.
func inspect(p *Package, visit func(ast.Node)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				visit(n)
			}
			return true
		})
	}
}

// sourceLines sums the lines of the non-test files ending in ext under
// the given directories of root, bench/ aside: the tree's size as the
// summary has always counted it, fixtures under testdata/ included.
func sourceLines(t *testing.T, root, ext string, dirs ...string) int {
	t.Helper()
	lines := 0
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path == filepath.Join(root, "bench"):
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ext) || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			src, err := os.ReadFile(path)
			lines += bytes.Count(src, []byte("\n"))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return lines
}
