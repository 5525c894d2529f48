package lint

import (
	"go/ast"
	"strings"
	"sync"
)

// DepAPI keeps module-internal code off Deprecated entry points. A
// Deprecated function names its replacement in the doc comment; such a
// wrapper exists for API stability, not as a license for new internal call
// sites — an internal caller on the legacy path silently loses whatever the
// replacement added (context threading, vectorized operators, typed view
// schemas). Per production (non-test) file:
//
//  1. a call that resolves to a summarized function or method whose doc
//     comment carries a "Deprecated:" marker is reported, with the
//     replacement text from the marker;
//
//  2. a composite literal of a type whose doc comment carries a
//     "Deprecated:" marker (e.g. a row-at-a-time operator kept as a thin
//     wrapper around its batch replacement) is reported the same way.
//
// The declaring package is exempt — it hosts the wrappers and their
// pinning tests — and so are Deprecated functions themselves, whose whole
// body is the documented bridge to the old API.
var DepAPI = &Analyzer{
	Name: "depapi",
	Doc:  "internal code must use the replacements of Deprecated entry points",
	Run:  runDepAPI,
}

// depTypes caches the module's deprecated type index per Program: key
// "importpath.TypeName" → replacement hint from the doc comment.
var depTypes sync.Map // *Program → map[string]string

func runDepAPI(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	types := deprecatedTypes(pass)
	for _, file := range pass.Pkg.Files {
		fname := pass.Pkg.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		imports := importMap(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			info := pass.Prog.InfoFor(fd)
			if info == nil || info.Deprecated {
				continue
			}
			env := pass.Prog.Env(info)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					ref, ok := env.resolveCall(x)
					if !ok || ref.Pkg == pass.Pkg.Path {
						return true
					}
					callee := pass.Prog.Lookup(ref)
					if callee == nil || !callee.Deprecated {
						return true
					}
					pass.Reportf(x.Pos(), "%s is deprecated%s", ref.Short(), deprecationHint(callee.Decl.Doc))
				case *ast.CompositeLit:
					sel, ok := x.Type.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					path, imported := imports[id.Name]
					if !imported || path == pass.Pkg.Path {
						return true
					}
					if hint, dep := types[path+"."+sel.Sel.Name]; dep {
						pass.Reportf(x.Pos(), "%s.%s is deprecated%s", shortPkg(path), sel.Sel.Name, hint)
					}
				}
				return true
			})
		}
	}
}

// deprecatedTypes builds (once per Program) the index of type declarations
// whose doc comments carry a "Deprecated:" marker.
func deprecatedTypes(pass *Pass) map[string]string {
	if cached, ok := depTypes.Load(pass.Prog); ok {
		return cached.(map[string]string)
	}
	types := map[string]string{}
	for path, pkg := range pass.All {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					if doc == nil || !strings.Contains(doc.Text(), "Deprecated:") {
						continue
					}
					types[path+"."+ts.Name.Name] = deprecationHint(doc)
				}
			}
		}
	}
	actual, _ := depTypes.LoadOrStore(pass.Prog, types)
	return actual.(map[string]string)
}

// deprecationHint extracts the replacement text following the
// "Deprecated:" marker, e.g. ": use ExecuteContext".
func deprecationHint(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	text := doc.Text()
	i := strings.Index(text, "Deprecated:")
	if i < 0 {
		return ""
	}
	rest := strings.TrimSpace(text[i+len("Deprecated:"):])
	if rest == "" {
		return ""
	}
	// First sentence (or line) only: the marker's lead clause names the
	// replacement; the rest is rationale.
	if j := strings.IndexAny(rest, ".\n—;"); j >= 0 {
		rest = rest[:j]
	}
	return ": " + strings.TrimSpace(rest)
}
