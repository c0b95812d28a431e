package wire

import (
	"net/http/httptest"
	"testing"
)

func TestAdminTokenMatches(t *testing.T) {
	for _, c := range []struct {
		name   string
		header map[string]string
		want   bool
	}{
		{"admin header", map[string]string{"X-PAS-Admin-Token": "s3cret"}, true},
		{"bearer", map[string]string{"Authorization": "Bearer s3cret"}, true},
		{"none", nil, false},
		{"wrong admin header", map[string]string{"X-PAS-Admin-Token": "nope"}, false},
		{"wrong bearer", map[string]string{"Authorization": "Bearer nope"}, false},
		{"bare authorization", map[string]string{"Authorization": "s3cret"}, false},
		{"other scheme", map[string]string{"Authorization": "Basic s3cret"}, false},
		{"admin header wins", map[string]string{"X-PAS-Admin-Token": "nope", "Authorization": "Bearer s3cret"}, false},
	} {
		r := httptest.NewRequest("POST", "/v1/drain", nil)
		for k, v := range c.header {
			r.Header.Set(k, v)
		}
		if got := AdminTokenMatches(r, "s3cret"); got != c.want {
			t.Errorf("%s: AdminTokenMatches = %v, want %v", c.name, got, c.want)
		}
	}
}
