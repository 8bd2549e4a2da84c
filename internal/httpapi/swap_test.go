package httpapi

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSwapUnderLoad hammers the hot endpoints from many goroutines while
// the main goroutine keeps publishing new snapshot generations, and asserts
// that no response is torn: within one response the ETag, the
// X-Dataset-Generation header and the body's meta.generation must always
// name the same generation. Run under -race this also proves the lock-free
// read path has no data races with Publish.
func TestSwapUnderLoad(t *testing.T) {
	ds := testDataset(t)
	api := newPublished(ds, WithLogger(testLogger()))

	var list []map[string]any
	lsrv := httptest.NewServer(api)
	if code, _ := getData(t, lsrv.URL+"/v1/clusters?limit=1", &list); code != 200 || len(list) == 0 {
		t.Fatal("no clusters to look up")
	}
	lsrv.Close()
	ncid := list[0]["ncid"].(string)

	paths := []string{
		"/v1/stats",
		"/v1/clusters/summary",
		"/v1/clusters/summary?minSize=2",
		"/v1/records/" + ncid,
		"/v1/healthz",
	}

	const (
		readers          = 8
		requestsPerIter  = 20
		publishRounds    = 25
		minGenBeforeStop = 5
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan string, readers)

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(i+w)%len(paths)]
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					errc <- path + ": status " + strconv.Itoa(rec.Code)
					return
				}
				etag := rec.Header().Get("ETag")
				hdr := rec.Header().Get(headerGeneration)
				var env struct {
					Meta struct {
						Generation uint64 `json:"generation"`
					} `json:"meta"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					errc <- path + ": body decode: " + err.Error()
					return
				}
				bodyGen := strconv.FormatUint(env.Meta.Generation, 10)
				if hdr != bodyGen || etag != `"g`+bodyGen+`"` {
					errc <- path + ": torn generation: etag=" + etag + " header=" + hdr + " body=" + bodyGen
					return
				}
			}
		}(w)
	}

	for i := 0; i < publishRounds; i++ {
		api.Publish(ds)
		// A few reads per swap keep the interleaving dense.
		for j := 0; j < requestsPerIter; j++ {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		}
	}
	if api.Generation() < minGenBeforeStop {
		t.Fatalf("only reached generation %d", api.Generation())
	}
	close(stop)
	wg.Wait()
	close(errc)
	var torn []string
	for e := range errc {
		torn = append(torn, e)
	}
	if len(torn) > 0 {
		t.Fatalf("torn responses under swap:\n%s", strings.Join(torn, "\n"))
	}
}
