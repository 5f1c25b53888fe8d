(** Cell identity for content-addressed campaign reuse.

    The paper estimates each permeability {m P_{i,k} = n_err / n_inj}
    per (module input, module output) pair, yet a naive campaign is one
    opaque run list: edit one module and everything is re-injected.
    The unit of reuse is finer — a {e cell}: one (module, injected
    input) pair under a fixed error model, workload grid and runner
    recipe.  A cell's counters are derived exclusively from the runs
    that inject into its input signal, so cells are independent across
    targets and can be cached and recombined ({!Cache}, {!Reuse}).

    A cell's {e key} is a content-addressed digest over everything its
    counters depend on by construction: the SUT and module names, the
    module's declared content digest ({!Sut.digests}), the injected
    target, the module's output signal list, the campaign shape
    (test cases, injection times, error models) and the caller's
    recipe string (seed, attribution window, runner options — see
    {!Runner.Config.encode}).  Two campaigns computing the same key
    promise the same counters, which is what makes a cache hit sound.

    Deliberate approximation: the key covers the module's {e own}
    digest, not the digests of its upstream producer cone.  An edit to
    an upstream module can change the values flowing into an unedited
    module without touching its key.  This mirrors the issue's
    FastFlip-style contract (a stale {e module} hash forces
    re-injection); for feed-forward systems edited at or below the
    observed module it is exact, and {!Reuse} documents the caveat for
    everything else. *)

type t = {
  module_name : string;  (** consumer module observing the injections *)
  target : string;  (** injected input signal *)
  outputs : string array;  (** the module's outputs, declaration order *)
  key : string;  (** content-addressed cache key (hex) *)
  digest : string option;
      (** the module's content digest; [None] makes the cell
          uncacheable (always dirty, never stored) *)
}

val key_of :
  sut_name:string ->
  module_name:string ->
  module_digest:string ->
  target:string ->
  outputs:string list ->
  shape:string ->
  errors:string list ->
  recipe:string ->
  string
(** The raw key constructor; exposed for tests.  Any single differing
    component yields a different key. *)

val errors_of : width:int -> Campaign.t -> string list
(** The campaign's error models as width-aware canonical descriptions
    ({!Error_model.canonicalize}): behaviourally identical spellings
    (e.g. [Stuck_at 5] vs [Stuck_at (5 + 65536)] at width 16) digest
    identically, so [--reuse] never misses spuriously. *)

type plan = {
  cells : t list;  (** every cell of the campaign, target-major *)
  by_target : (string * t list) list;
      (** campaign-target order; a target consumed by no module of the
          model maps to [[]] *)
}

val plan :
  sut:Sut.t ->
  model:Propagation.System_model.t ->
  recipe:string ->
  Campaign.t ->
  plan
(** Enumerate the cells of [campaign]: one per (module, target) pair
    where the module consumes the target.  [recipe] is an opaque
    string folded into every key; callers pass the encoded runner
    configuration plus whatever else estimation depends on (attribution
    window, failure accounting). *)
