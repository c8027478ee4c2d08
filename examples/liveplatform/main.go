// Liveplatform: drives the HTTP platform end to end — the four-party
// protocol of the paper's Fig. 1 over a real socket. It starts tampserver's
// handler in-process, registers workers that report their locations each
// tick, posts tasks from a requester, runs assignment batches, and lets
// workers accept or reject offers against their private routes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/server"
)

func main() {
	s, err := server.New(server.Config{
		Grid:     geo.DefaultGrid,
		Assigner: assign.PPI{A: predict.DefaultMatchRadius},
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	fmt.Println("platform listening at", srv.URL)

	rng := rand.New(rand.NewSource(7))

	// Three couriers with private straight routes; the platform only ever
	// sees the locations they report.
	type courier struct {
		id       int
		pos, vel geo.Point
	}
	couriers := []*courier{
		{id: 1, pos: geo.Pt(10, 25), vel: geo.Pt(3, 0)},
		{id: 2, pos: geo.Pt(50, 5), vel: geo.Pt(0, 2.5)},
		{id: 3, pos: geo.Pt(90, 40), vel: geo.Pt(-3, -0.5)},
	}
	for _, c := range couriers {
		post(srv.URL+"/api/workers", map[string]any{"id": c.id, "detourKm": 8, "speed": 3, "mr": 0.8})
	}

	accepted, rejected := 0, 0
	for tick := 0; tick < 12; tick++ {
		// Couriers move and report.
		for _, c := range couriers {
			c.pos = c.pos.Add(c.vel)
			post(fmt.Sprintf("%s/api/workers/%d/location", srv.URL, c.id),
				map[string]any{"x": c.pos.X, "y": c.pos.Y})
		}
		// A requester posts a task near a random courier's upcoming path.
		target := couriers[rng.Intn(len(couriers))]
		ahead := target.pos.Add(target.vel.Scale(3 + rng.Float64()*2))
		post(srv.URL+"/api/tasks", map[string]any{
			"x": ahead.X, "y": ahead.Y, "deadline": tick + 15,
		})

		// Platform batch.
		post(srv.URL+"/api/batch", nil)

		// Couriers check offers; they accept tasks within 2 km of their
		// route over the next few ticks.
		for _, c := range couriers {
			var offers []struct {
				OfferID int     `json:"offerId"`
				X       float64 `json:"x"`
				Y       float64 `json:"y"`
			}
			get(fmt.Sprintf("%s/api/workers/%d/offers", srv.URL, c.id), &offers)
			for _, off := range offers {
				serveable := false
				probe := c.pos
				for k := 0; k < 8; k++ {
					probe = probe.Add(c.vel)
					if probe.Dist(geo.Pt(off.X, off.Y)) < geo.KMToCells(2) {
						serveable = true
						break
					}
				}
				action := "reject"
				if serveable {
					action = "accept"
					accepted++
				} else {
					rejected++
				}
				post(fmt.Sprintf("%s/api/offers/%d/%s", srv.URL, off.OfferID, action), nil)
			}
		}
		post(srv.URL+"/api/tick", nil)
	}

	// The platform's tallies are series on GET /metrics (Prometheus text);
	// the task list gives the number posted.
	var tasks []struct{}
	get(srv.URL+"/api/tasks", &tasks)
	m := scrape(srv.URL + "/metrics")
	fmt.Printf("\nafter 12 ticks: %d tasks posted, %s offers, %s accepted, %s rejected, %s expired\n",
		len(tasks), m["tamp_server_offers_total"], m["tamp_server_accepts_total"],
		m["tamp_server_rejects_total"], m["tamp_server_expired_total"])
	fmt.Printf("courier-side accounting agrees: accepted %d, rejected %d\n", accepted, rejected)
}

func post(url string, body any) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			log.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

// scrape reads a Prometheus text exposition into value by series.
func scrape(url string) map[string]string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]] = line[i+1:]
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return out
}
