package analysis

import (
	"fmt"
	"io"

	"ipscope/internal/par"
)

// Renderer is any experiment artifact that renders itself as text.
type Renderer interface{ Render() string }

// RunAll executes every experiment against ctx and writes the full
// report (all tables and figures of the paper) to w. The experiment
// drivers are independent read-only consumers of ctx, so they fan out
// across a worker pool; sections render in the paper's fixed order
// regardless of which finishes first.
func RunAll(w io.Writer, ctx *Context, seed uint64) {
	experiments := []func() Renderer{
		func() Renderer { return Figure1(seed) },
		func() Renderer { return Table1(ctx) },
		func() Renderer { return Figure2(ctx) },
		func() Renderer { return Figure3(ctx, 11) },
		func() Renderer { return RecaptureEstimate(ctx) },
		func() Renderer { return Figure4(ctx) },
		func() Renderer { return Figure5(ctx, 100) },
		func() Renderer { return Table2(ctx) },
		func() Renderer { return Figure6(ctx) },
		func() Renderer { return Figure7(ctx, 2) },
		func() Renderer { return Figure8(ctx) },
		func() Renderer { return Figure9(ctx) },
		func() Renderer { return Figure10(ctx) },
		func() Renderer { return Figure11(ctx) },
		func() Renderer { return Figure12(ctx) },
	}

	var g par.Group
	g.SetLimit(par.Workers(0))
	sections := make([]Renderer, len(experiments))
	for i, fn := range experiments {
		g.Go(func() error {
			sections[i] = fn()
			return nil
		})
	}
	g.Wait()

	fmt.Fprintf(w, "ipscope experiment report (world: %d ASes, %d /24 blocks; %d simulated days)\n\n",
		len(ctx.World.ASes), ctx.World.NumBlocks(), ctx.Obs.Meta.Run.Days)
	for _, r := range sections {
		io.WriteString(w, r.Render())
		io.WriteString(w, "\n")
	}
}
