// Package lint is flm's repo-specific static-analysis suite. It
// machine-checks the invariants every result in this reproduction rests
// on but the compiler cannot see:
//
//   - flmdeterminism: the engine packages produce byte-identical output
//     at any FLM_WORKERS — no wall clock, no global rand source, no map
//     iteration order reaching an encoded output. Determinism is what
//     makes the FLM85 splice argument checkable: a replayed scenario
//     must be THE run, not a run.
//   - flmfingerprint: every sim.Fingerprinter folds all of its
//     behavior-affecting constructor state into its fingerprint. A
//     missed field is a wrong cache hit — silent result corruption.
//   - flmobscost: internal/obs call sites build attributes only behind
//     an obs.Enabled() (or nil-span) guard, preserving the zero-alloc
//     disabled path TestExecuteUntracedAllocsLikeExecutor pins.
//   - flmalias: Device Step/Tick implementations do not retain
//     executor-owned buffers (inbox maps/slices, arena-backed *big.Rat
//     scratch) in struct fields or package state.
//
// The suite runs as a `go vet -vettool` binary (cmd/flmlint, wired into
// `make lint`) and deliberately depends only on the standard library:
// the framework below is a minimal go/analysis-alike so the module
// stays dependency-free.
//
// A finding that is a deliberate, justified exception is silenced with
//
//	//flmlint:allow <analyzer> <reason>
//
// on the flagged line, on the line directly above it, or in the doc
// comment of the enclosing declaration (which silences the whole
// declaration). The reason is mandatory; a directive without one, or
// naming an unknown analyzer, is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	unit *unit
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.unit.allowed(p.Analyzer.Name, position) {
		return
	}
	p.unit.diags = append(p.unit.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The analyzers
// check production invariants; test scaffolding (fake devices, timeout
// plumbing) plays by different rules and is skipped wholesale.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Fingerprint, ObsCost, Alias}
}

// analyzerNames is the directive vocabulary.
func analyzerNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

// unit is the shared per-package state: the allow-directive index and
// the accumulated diagnostics of every analyzer that ran.
type unit struct {
	fset *token.FileSet
	// allow maps filename -> analyzer -> set of covered lines.
	allow map[string]map[string]map[int]bool
	diags []Diagnostic
}

func (u *unit) allowed(analyzer string, pos token.Position) bool {
	return u.allow[pos.Filename][analyzer][pos.Line]
}

const directivePrefix = "//flmlint:allow"

// indexDirectives builds the allow index for one file and validates
// directive syntax. A directive covers its own line and the next line;
// a directive inside a declaration's doc comment covers the whole
// declaration (struct fields included, so a field-level doc comment
// silences exactly that field).
func (u *unit) indexDirectives(file *ast.File, known map[string]bool) {
	cover := func(analyzer string, from, to int, filename string) {
		byAnalyzer := u.allow[filename]
		if byAnalyzer == nil {
			byAnalyzer = make(map[string]map[int]bool)
			u.allow[filename] = byAnalyzer
		}
		lines := byAnalyzer[analyzer]
		if lines == nil {
			lines = make(map[int]bool)
			byAnalyzer[analyzer] = lines
		}
		for l := from; l <= to; l++ {
			lines[l] = true
		}
	}

	// parse validates one directive comment and returns the analyzer it
	// silences ("" if the comment is not a directive or is malformed;
	// malformed ones are reported as findings so typos cannot silently
	// disable a check).
	parse := func(c *ast.Comment) string {
		if !strings.HasPrefix(c.Text, directivePrefix) {
			return ""
		}
		pos := u.fset.Position(c.Pos())
		rest := strings.TrimPrefix(c.Text, directivePrefix)
		fields := strings.Fields(rest)
		if len(fields) == 0 || !known[fields[0]] {
			u.diags = append(u.diags, Diagnostic{
				Analyzer: "flmlint",
				Pos:      pos,
				Message:  fmt.Sprintf("malformed flmlint directive %q: want //flmlint:allow <analyzer> <reason>, analyzers are %s", c.Text, knownList(known)),
			})
			return ""
		}
		if len(fields) < 2 {
			u.diags = append(u.diags, Diagnostic{
				Analyzer: "flmlint",
				Pos:      pos,
				Message:  fmt.Sprintf("flmlint directive for %s is missing its reason: the justification is part of the contract", fields[0]),
			})
			return ""
		}
		return fields[0]
	}

	// Directives in doc comments cover the whole documented node.
	docRange := map[*ast.CommentGroup][2]token.Pos{}
	ast.Inspect(file, func(n ast.Node) bool {
		var doc *ast.CommentGroup
		switch n := n.(type) {
		case *ast.FuncDecl:
			doc = n.Doc
		case *ast.GenDecl:
			doc = n.Doc
		case *ast.TypeSpec:
			doc = n.Doc
		case *ast.ValueSpec:
			doc = n.Doc
		case *ast.Field:
			doc = n.Doc
		}
		if doc != nil {
			if _, seen := docRange[doc]; !seen {
				docRange[doc] = [2]token.Pos{n.Pos(), n.End()}
			}
		}
		return true
	})

	for _, cg := range file.Comments {
		for _, c := range cg.List {
			analyzer := parse(c)
			if analyzer == "" {
				continue
			}
			pos := u.fset.Position(c.Pos())
			if r, ok := docRange[cg]; ok {
				cover(analyzer, u.fset.Position(r[0]).Line, u.fset.Position(r[1]).Line, pos.Filename)
				continue
			}
			cover(analyzer, pos.Line, pos.Line+1, pos.Filename)
		}
	}
}

func knownList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// RunAnalyzers type-checks nothing — it runs the given analyzers over an
// already-checked package and returns the surviving diagnostics sorted
// by position. Directive validation runs exactly once per package.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	u := &unit{fset: fset, allow: make(map[string]map[string]map[int]bool)}
	known := analyzerNames()
	for _, f := range files {
		u.indexDirectives(f, known)
	}
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			unit:      u,
		})
	}
	sort.Slice(u.diags, func(i, j int) bool {
		a, b := u.diags[i].Pos, u.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return u.diags[i].Analyzer < u.diags[j].Analyzer
	})
	return u.diags
}

// NewInfo returns a types.Info with every map the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// CheckFiles parses and type-checks one package from source.
func CheckFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer, goVersion string) ([]*ast.File, *types.Package, *types.Info, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(error) {}, // collect everything; first error is returned
	}
	pkg, err := conf.Check(path, fset, files, info)
	return files, pkg, info, err
}

// SourceImporter returns an importer that type-checks dependencies from
// source via go/build (used by the standalone driver's fallback and the
// fixture loader for standard-library imports).
func SourceImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}
