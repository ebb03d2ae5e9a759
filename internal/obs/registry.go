package obs

// Registry is an empty placeholder: the engine publishes no metrics
// registry, a run's figures are its core.Result and its event log. It
// stays, with NewRegistry and core.Config.Metrics, only until the
// repository benchmark under bench/ stops setting Config.Metrics.
type Registry struct{}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry { return &Registry{} }
