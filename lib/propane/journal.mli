(** Append-only campaign journal.

    Paper-scale campaigns are 52,000 injection runs (Section 7.3); a
    crash at run 51,999 must not lose the 51,998 before it.  A journal
    streams every outcome to disk the moment it completes, one record
    per line, so an interrupted campaign can be resumed from exactly
    where it stopped (see {!Runner.run}).

    The format follows the {!Storage} convention — versioned magic,
    line-based, tab-separated:
    {v
    propane-journal 1
    sut <tab> NAME
    campaign <tab> NAME
    seed <tab> SEED
    total <tab> RUNS
    recipe <tab> RECIPE          (optional)
    run <tab> INDEX <tab> TESTCASE <tab> TARGET <tab> AT_MS <tab> ERROR
        <tab> NDIV { <tab> SIGNAL <tab> FIRST_MS } * NDIV
    run2 <tab> INDEX <tab> TESTCASE <tab> TARGET <tab> AT_MS <tab> ERROR
        <tab> STATUS <tab> NDIV { <tab> SIGNAL <tab> FIRST_MS } * NDIV
    cell <tab> TARGET <tab> MODULE <tab> KEY <tab> reused|fresh
    plan <tab> ROUND <tab> TARGET <tab> RUNS
    v}

    [cell] records are provenance written by cache-reusing campaigns
    ({!Cell}, {!Cache}): one per (module, injected input) cell of the
    plan, tying the journal's outcomes to the content-addressed keys
    that were reused or re-measured.  Campaigns without a cache write
    none, so their journals stay byte-identical to the original
    format.

    [plan] records are the budget scheduler's round allocations
    ({!Plan}): one per (round, target), in round order, appended in one
    batch when a planned campaign finishes.  Rounds are a deterministic
    function of the completed outcomes, so a killed-and-resumed
    campaign re-derives and records identical rounds; unplanned
    campaigns write none.

    A run that completed normally is written as a v1 [run] record, so
    journals of failure-free campaigns are byte-identical to the
    original format; a {!Results.Crashed} or {!Results.Hung} run is
    written as [run2] with its status (serialised as in {!Storage})
    between ERROR and NDIV.  v1 journals load with every status
    defaulting to {!Results.Completed}.

    A record is committed by its trailing newline: {!load} silently
    drops an unterminated final line, which is exactly the state a
    killed writer leaves behind.  Records carry the experiment index of
    {!Campaign.experiments}, so out-of-order appends (parallel runs)
    and duplicates are harmless. *)

(** {1 Writing} *)

type writer

val create :
  ?sync:bool ->
  ?batch:int ->
  ?recipe:string ->
  path:string ->
  sut:string ->
  campaign:string ->
  seed:int64 ->
  total:int ->
  unit ->
  (writer, string) result
(** Truncates [path] and writes the header.  [recipe] (optional)
    records an opaque campaign-reconstruction string — the CLI stores
    its encoded recipe so [propane replay] can rebuild the exact SUT,
    campaign and runner configuration; journals created without it
    keep their previous bytes.  With [sync] (default
    [false]) every commit is additionally [fsync]ed, making records
    durable against power loss, not just process death.  [batch]
    (default [1]) amortises the per-record flush: records are committed
    to disk every [batch] {!append}s and on {!flush}/{!close}, so a
    killed writer loses at most the last [batch - 1] records plus a
    truncated fragment — both recovered by re-running those indices on
    resume.  Fails if a name contains a separator character or [batch
    < 1].
    @raise Sys_error on I/O failure. *)

val append_to : ?sync:bool -> ?batch:int -> string -> (writer, string) result
(** Opens an existing journal for appending (the resume path).  The
    header is checked but not rewritten; an uncommitted trailing
    fragment is truncated away.  [sync] and [batch] as in {!create}.
    @raise Sys_error on I/O failure. *)

val append : writer -> index:int -> Results.outcome -> (unit, string) result
(** Writes one newline-terminated record, committing (flushing) when
    [batch] records have accumulated.  Fails if a field contains a
    separator character or [index] is negative. *)

val record_string : index:int -> Results.outcome -> (string, string) result
(** The exact record line {!append} would write, without the trailing
    newline — there is exactly one encoding, shared by both.  This is
    the unit of [propane replay]'s byte-identity check: re-execute a
    journalled run, render both outcomes through [record_string],
    compare strings. *)

type cell = {
  target : string;
  module_name : string;
  key : string;
  reused : bool;
}

val append_cells : writer -> cell list -> (unit, string) result
(** Writes one cell provenance record per element, then commits: a
    reuse plan is durable in full before the first outcome lands.
    Fails if a field contains a separator character. *)

type round = { round : int; target : string; runs : int }
(** One plan-round allocation: [runs] injection runs granted to
    [target] in round [round] (0-based; round 0 is the pilot). *)

val append_rounds : writer -> round list -> (unit, string) result
(** Writes one plan-round record per element, then commits — called
    once when a planned campaign finishes, so the full allocation
    history lands in one batch.  Fails if a target contains a separator
    character or a count is negative. *)

val flush : writer -> unit
(** Commits any buffered records now.  A no-op when nothing is
    pending. *)

val close : writer -> unit
(** Flushes buffered records and closes the file. *)

(** {1 Reading} *)

type t = {
  sut : string;
  campaign : string;
  seed : int64;
  total : int;  (** size of the campaign the journal belongs to *)
  recipe : string option;
      (** the campaign-reconstruction string recorded at {!create}
          time; [None] for journals written without one *)
  cells : cell list;
      (** cell provenance records in journal order; [[]] for journals
          written without a cache *)
  rounds : round list;
      (** plan-round records in journal order; [[]] for journals of
          unplanned (or killed-before-finish) campaigns *)
  entries : (int * Results.outcome) list;
      (** committed records in journal order; indices refer to
          {!Campaign.experiments} *)
}

val load : string -> (t, string) result
(** Replays a journal, tolerating a truncated final record.  Fails
    with a line-numbered message on any other malformation.
    @raise Sys_error on I/O failure. *)

val validate :
  t ->
  path:string ->
  sut:string ->
  campaign:string ->
  seed:int64 ->
  total:int ->
  (unit, string) result
(** Checks that a loaded journal belongs to the given campaign —
    matching SUT, campaign name, seed, size, and every entry index in
    range.  Mismatched metadata means the journal records a different
    campaign; refusing loudly beats silently corrupting a resume.  The
    scheduling core ({!Runner.Session}) every backend drives uses this
    before trusting a journal's entries. *)

val completed : t -> (int, Results.outcome) Hashtbl.t
(** The entries as an index-keyed table, last occurrence winning — a
    re-executed run's record supersedes the failed attempt it retried. *)
