package cluster

import (
	"bufio"
	"fmt"
	"sort"
	"strings"

	"wearlock/internal/telemetry"
)

// Shard-metrics aggregation: the gateway scrapes every shard's
// Prometheus text exposition and re-exports the union under its own
// /metrics, injecting a shard="<id>" label into each sample so the same
// counter from different shards never collides. HELP/TYPE headers are
// emitted once per metric family (first shard to define one wins), and
// shards are folded in sorted order, so an idle cluster's aggregate is
// byte-stable scrape to scrape — the same determinism contract the
// telemetry package keeps for a single process.

// InjectShardLabel rewrites one exposition sample line, adding
// shard="<id>" as the first label. Comment and blank lines pass through
// unchanged.
func InjectShardLabel(line, shard string) string {
	if line == "" || strings.HasPrefix(line, "#") {
		return line
	}
	// A sample line is `name[{labels}] value [timestamp]`. The name ends
	// at '{' or the first space.
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if space < 0 {
		return line // not a sample; leave it alone
	}
	if brace >= 0 && brace < space {
		return fmt.Sprintf("%s{shard=%q,%s", line[:brace], shard, line[brace+1:])
	}
	return fmt.Sprintf("%s{shard=%q}%s", line[:space], shard, line[space:])
}

// familyOf extracts the metric family a line belongs to: the metric name
// with histogram suffixes stripped, so _bucket/_sum/_count samples group
// with their family's HELP/TYPE.
func familyOf(line string) string {
	name := telemetry.SampleName(line)
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

// AggregateMetrics merges per-shard expositions into one: families in
// first-appearance order over sorted shard IDs, each family's HELP/TYPE
// once, then every shard's samples for that family with the shard label
// injected.
func AggregateMetrics(byShard map[string]string) string {
	shards := make([]string, 0, len(byShard))
	for id := range byShard {
		shards = append(shards, id)
	}
	sort.Strings(shards)

	type family struct {
		header  []string // HELP/TYPE lines, first definition wins
		samples []string
	}
	var order []string
	families := make(map[string]*family)

	for _, shard := range shards {
		sc := bufio.NewScanner(strings.NewReader(byShard[shard]))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			var fam string
			isHeader := false
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				fields := strings.SplitN(line, " ", 4)
				if len(fields) < 3 {
					continue
				}
				fam = fields[2]
				isHeader = true
			} else if strings.HasPrefix(line, "#") {
				continue
			} else {
				fam = familyOf(line)
			}
			f, ok := families[fam]
			if !ok {
				f = &family{}
				families[fam] = f
				order = append(order, fam)
			}
			if isHeader {
				// Keep the first shard's HELP/TYPE pair only.
				if len(f.header) < 2 {
					f.header = append(f.header, line)
				}
				continue
			}
			f.samples = append(f.samples, InjectShardLabel(line, shard))
		}
	}

	var b strings.Builder
	for _, fam := range order {
		f := families[fam]
		for _, h := range f.header {
			b.WriteString(h)
			b.WriteByte('\n')
		}
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
