// Package triage turns the journal determinism contract into a debugger.
// Equal-seed runs leave byte-identical JSONL journals (package obs), so any
// behaviour change between two runs — a code change, a platform model, a
// seed — is exactly the first line where their journals diverge. Diff
// streams two journals to that line and reports it with full context:
// virtual time, the diverging rank's current phase and last completed
// step, and a window of surrounding lines from both sides. FormatSweep
// renders per-point first-divergence summaries across a platform × rank
// grid, the front-end for outlier hunting.
//
// Determinism contract: the package reads no wall clock and no global
// randomness; its output is a pure function of the two input byte streams
// (the TestDiff* tests pin the divergence line and context windows for
// fixed inputs).
package triage

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"heterohpc/internal/obs"
)

// Line is one journal line: its 1-based number, raw bytes (without the
// trailing newline) and, when the line parses, the decoded event.
type Line struct {
	Num    int
	Raw    string
	Ev     obs.Event
	Parsed bool
}

// Side describes one journal's state at the divergence point.
type Side struct {
	// Name labels the journal (usually its file name).
	Name string
	// Line is the diverging line, or nil when this journal ended before
	// reaching it (the other side kept going).
	Line *Line
	// Phase is the phase the diverging line's rank was in when it emitted
	// the line ("" when unknown — e.g. global rank −1 events).
	Phase string
	// Step is the last time step that rank had completed (0 = none yet; a
	// checkpoint restore rewinds it to the restored step).
	Step int
	// After holds up to window raw lines following the diverging line.
	After []string
}

// Divergence reports the first line where two journals differ.
type Divergence struct {
	// Num is the 1-based number of the first differing line.
	Num int
	// Common holds up to window identical lines preceding the divergence
	// (shared by both journals by construction).
	Common []Line
	// Old and New are the two journals' states at line Num.
	Old, New Side
}

// Diff streams two journals and returns their first divergence, or nil
// when they are byte-identical. window bounds the surrounding-context
// capture (lines kept before and read after the divergence). The int
// result is the identical-prefix length in lines — the total line count
// when the journals match. Lines on the identical prefix must parse
// (errors wrap obs.ErrMalformed and carry the journal name and line
// number); the diverging lines themselves are reported even when
// unparseable.
func Diff(oldName string, oldR io.Reader, newName string, newR io.Reader, window int) (*Divergence, int, error) {
	if window < 0 {
		window = 0
	}
	ob, nb := bufio.NewReader(oldR), bufio.NewReader(newR)
	octx, nctx := newCtx(), newCtx()
	var common []Line
	num := 0
	for {
		oline, ook, err := readLine(ob)
		if err != nil {
			return nil, num, fmt.Errorf("%s line %d: %w", oldName, num+1, err)
		}
		nline, nok, err := readLine(nb)
		if err != nil {
			return nil, num, fmt.Errorf("%s line %d: %w", newName, num+1, err)
		}
		if !ook && !nok {
			return nil, num, nil
		}
		num++
		if ook && nok && oline == nline {
			ev, perr := obs.ParseEventLine(oline)
			if perr != nil {
				return nil, num - 1, fmt.Errorf("%s line %d: %w", oldName, num, perr)
			}
			octx.update(ev)
			nctx.update(ev)
			if window > 0 {
				if len(common) == window {
					copy(common, common[1:])
					common = common[:window-1]
				}
				common = append(common, Line{Num: num, Raw: oline, Ev: ev, Parsed: true})
			}
			continue
		}
		d := &Divergence{Num: num, Common: common}
		d.Old = makeSide(oldName, num, oline, ook, octx, ob, window)
		d.New = makeSide(newName, num, nline, nok, nctx, nb, window)
		return d, num - 1, nil
	}
}

// readLine returns the next line without its trailing newline. ok is false
// on clean end of input. A final line without a newline is returned as a
// line: a truncated journal still diffs (the divergence finder must work
// on exactly the runs that failed).
func readLine(br *bufio.Reader) (line string, ok bool, err error) {
	s, err := br.ReadString('\n')
	if err == io.EOF {
		if s == "" {
			return "", false, nil
		}
		return s, true, nil
	}
	if err != nil {
		return "", false, err
	}
	return s[:len(s)-1], true, nil
}

// ctx tracks per-rank journal context on one side: the phase each rank is
// in and the last time step it completed.
type ctx struct {
	phase map[int]string
	step  map[int]int
}

func newCtx() *ctx {
	return &ctx{phase: make(map[int]string), step: make(map[int]int)}
}

func (c *ctx) update(ev obs.Event) {
	switch ev.Kind {
	case "phase":
		c.phase[ev.Rank] = ev.Name
	case "step":
		c.step[ev.Rank] = int(ev.I1)
	case "ckpt-restore":
		// Restoring the checkpoint written after step I1 rewinds the rank
		// there: steps beyond it will re-run.
		c.step[ev.Rank] = int(ev.I1)
	}
}

func makeSide(name string, num int, raw string, ok bool, c *ctx, br *bufio.Reader, window int) Side {
	s := Side{Name: name}
	if !ok {
		return s
	}
	ln := &Line{Num: num, Raw: raw}
	if ev, err := obs.ParseEventLine(raw); err == nil {
		ln.Ev = ev
		ln.Parsed = true
		s.Phase = c.phase[ev.Rank]
		s.Step = c.step[ev.Rank]
	}
	s.Line = ln
	for i := 0; i < window; i++ {
		next, ok2, err := readLine(br)
		if err != nil || !ok2 {
			break
		}
		s.After = append(s.After, next)
	}
	return s
}

// FormatDivergence renders a divergence as a plain-text report: the
// shared context window once, then each side's diverging line (with the
// rank's phase/step context) and following lines.
func FormatDivergence(d *Divergence) string {
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence at line %d (%d identical lines)\n", d.Num, d.Num-1)
	if len(d.Common) > 0 {
		b.WriteString("common context:\n")
		for i := range d.Common {
			fmt.Fprintf(&b, "  %6d | %s\n", d.Common[i].Num, d.Common[i].Raw)
		}
	}
	formatSide(&b, &d.Old, d.Num)
	formatSide(&b, &d.New, d.Num)
	return b.String()
}

func formatSide(b *strings.Builder, s *Side, num int) {
	if s.Line == nil {
		fmt.Fprintf(b, "--- %s: journal ends after line %d\n", s.Name, num-1)
		return
	}
	fmt.Fprintf(b, "--- %s: %s\n", s.Name, SideContext(s))
	fmt.Fprintf(b, "  >%5d | %s\n", s.Line.Num, s.Line.Raw)
	for i, after := range s.After {
		fmt.Fprintf(b, "  %6d | %s\n", s.Line.Num+1+i, after)
	}
}

// SideContext renders one side's divergence context as a single line:
// virtual time, rank, kind, phase, and last completed step.
func SideContext(s *Side) string {
	if s.Line == nil {
		return "journal ended"
	}
	if !s.Line.Parsed {
		return "unparseable line"
	}
	ev := s.Line.Ev
	var b strings.Builder
	fmt.Fprintf(&b, "t=%s rank=%d kind=%q", strconv.FormatFloat(ev.T, 'g', -1, 64), ev.Rank, ev.Kind)
	if ev.Name != "" {
		fmt.Fprintf(&b, " name=%q", ev.Name)
	}
	if s.Phase != "" {
		fmt.Fprintf(&b, " phase=%q", s.Phase)
	}
	fmt.Fprintf(&b, " after-step=%d", s.Step)
	return b.String()
}

// SweepPoint is one cell of the outlier-hunting grid.
type SweepPoint struct {
	Platform string
	Ranks    int
}

// SweepResult is one point's diff outcome.
type SweepResult struct {
	Point SweepPoint
	// Lines is the identical-prefix length (total lines when Div is nil).
	Lines int
	// Div is the point's first divergence, nil when the journals matched.
	Div *Divergence
	// Err is set when the point could not be produced or diffed.
	Err error
}

// FormatSweep renders the per-point first-divergence summary as a
// plain-text grid (platforms × rank counts, in first-appearance order)
// followed by one context line per divergent or failed point. Cells read
// "same" (byte-identical), "L<n>" (first divergence at line n), or "ERR".
func FormatSweep(results []SweepResult) string {
	var plats []string
	var ranks []int
	cells := make(map[SweepPoint]string)
	for i := range results {
		r := &results[i]
		p := r.Point
		if _, dup := cells[p]; !dup {
			if !containsStr(plats, p.Platform) {
				plats = append(plats, p.Platform)
			}
			if !containsInt(ranks, p.Ranks) {
				ranks = append(ranks, p.Ranks)
			}
		}
		switch {
		case r.Err != nil:
			cells[p] = "ERR"
		case r.Div != nil:
			cells[p] = "L" + strconv.Itoa(r.Div.Num)
		default:
			cells[p] = "same"
		}
	}

	colW := len("platform")
	for _, p := range plats {
		if len(p) > colW {
			colW = len(p)
		}
	}
	cellW := 4
	for _, c := range cells {
		if len(c) > cellW {
			cellW = len(c)
		}
	}
	for _, r := range ranks {
		if w := len(strconv.Itoa(r)); w > cellW {
			cellW = w
		}
	}

	var b strings.Builder
	b.WriteString("journal-diff sweep: first divergence per platform × ranks\n")
	fmt.Fprintf(&b, "%-*s", colW, "platform")
	for _, r := range ranks {
		fmt.Fprintf(&b, "  %*d", cellW, r)
	}
	b.WriteByte('\n')
	for _, p := range plats {
		fmt.Fprintf(&b, "%-*s", colW, p)
		for _, r := range ranks {
			cell, present := cells[SweepPoint{p, r}]
			if !present {
				cell = "-"
			}
			fmt.Fprintf(&b, "  %*s", cellW, cell)
		}
		b.WriteByte('\n')
	}

	details := false
	for i := range results {
		r := &results[i]
		if r.Err == nil && r.Div == nil {
			continue
		}
		if !details {
			details = true
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s × %d: ", r.Point.Platform, r.Point.Ranks)
		switch {
		case r.Err != nil:
			fmt.Fprintf(&b, "error: %v\n", r.Err)
		default:
			fmt.Fprintf(&b, "line %d: %s\n", r.Div.Num, SideContext(&r.Div.New))
		}
	}
	return b.String()
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
