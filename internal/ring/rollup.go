package ring

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// rollup.go is the cluster-wide /metricsz: the proxy scrapes every
// member's exposition, parses it with internal/obs, tags each series
// with instance="<replica>", folds in its own registry under
// instance="proxy", and serves the merged exposition. One scrape of the
// proxy therefore sees the whole fleet without a separate collector.

// scrapeOKName is the synthetic per-instance gauge the rollup adds so
// dashboards can tell "member down" apart from "member idle".
const scrapeOKName = "pas_cluster_scrape_ok"

// localInstance labels the proxy's own registry in the rollup.
const localInstance = "proxy"

// MetricsRollup returns a handler serving the merged cluster
// exposition. local is the proxy's own registry (nil to roll up members
// only); timeout bounds the whole scrape fan-out, default 2s. Members
// are scraped concurrently on each request — Down members are still
// attempted (their scrape_ok series reads 0 when unreachable), so a
// recovered-but-not-yet-probed member shows up immediately.
func (c *Client) MetricsRollup(local *obs.Registry, timeout time.Duration) http.Handler {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		ctx, span := obs.StartSpan(ctx, "ring.metrics_rollup")
		defer span.End()

		members := c.mem.Snapshot()
		scrapes := make([]obs.ScrapedExposition, len(members))
		var wg sync.WaitGroup
		for i, m := range members {
			wg.Add(1)
			go func(i int, url string) {
				defer wg.Done()
				fams, err := c.scrapeMember(ctx, url)
				ok := 1.0
				if err != nil {
					ok, fams = 0, nil
				}
				fams = append(fams, obs.Family{
					Name:    scrapeOKName,
					Help:    "Whether the last rollup scrape of this instance succeeded.",
					Type:    "gauge",
					Samples: []obs.Sample{{Value: ok}},
				})
				scrapes[i] = obs.ScrapedExposition{Instance: url, Families: fams}
			}(i, m.URL)
		}
		wg.Wait()

		if local != nil {
			scrapes = append(scrapes, obs.ScrapedExposition{Instance: localInstance, Families: local.Gather()})
		}

		merged := obs.MergeExpositions(scrapes)
		span.SetAttr("ring.members", fmt.Sprint(len(members)))
		w.Header().Set("Content-Type", obs.TextContentType)
		if err := obs.Write(w, merged, false); err != nil {
			obs.AddEvent(ctx, "ring.rollup_write_error", "cause", err.Error())
		}
	})
}

// scrapeMember fetches and parses one member's /metricsz.
func (c *Client) scrapeMember(ctx context.Context, url string) ([]obs.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metricsz", nil)
	if err != nil {
		return nil, fmt.Errorf("ring: building scrape: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("ring: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain the error body so the connection is reusable.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("ring: scraping %s: status %d", url, resp.StatusCode)
	}
	fams, err := obs.ParseExposition(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("ring: parsing %s exposition: %w", url, err)
	}
	return fams, nil
}
