// Package obs is a fixture stub mirroring the production observability
// API surface the analyzers key on: the package path must be exactly
// flm/internal/obs for pkgFuncCall and the SetAttrs receiver check to
// recognize it.
package obs

import "context"

type Attr struct{ Key, Val string }

func Str(k, v string) Attr         { return Attr{k, v} }
func Int(k string, v int) Attr     { return Attr{k, ""} }
func Int64(k string, v int64) Attr { return Attr{k, ""} }
func Bool(k string, v bool) Attr   { return Attr{k, ""} }

type Span struct{ attrs []Attr }

func (s *Span) SetAttrs(attrs ...Attr) {
	if s != nil {
		s.attrs = append(s.attrs, attrs...)
	}
}

func (s *Span) End() {}

type Tracer struct{}

var on bool

func Enabled() bool { return on }

func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if !on {
		return ctx, nil
	}
	return ctx, &Span{attrs: attrs}
}

func Event(ctx context.Context, name string, attrs ...Attr) {}
