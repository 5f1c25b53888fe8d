(** Static propagation model of the target system (paper Figs. 8-9).

    Six modules, fourteen signals, twenty-five input/output pairs.
    System inputs [PACNT], [TIC1], [TCNT], [ADC]; system output
    [TOC2]. *)

val system : Propagation.System_model.t

val injection_targets : string list
(** The thirteen distinct module-input signals, i.e. the campaign
    targets of Section 7.3 (every signal except [TOC2]). *)

val module_names : string list
(** [CLOCK; DIST_S; PRES_S; CALC; V_REG; PRES_A]. *)

val module_digests : (string * string) list
(** Per-module content digests for cell-level campaign reuse
    ({!Propane.Cell}): a hash of a developer-maintained version tag
    plus the module's signal interface.  Editing a module (bumping its
    tag) invalidates exactly the cached cells that observed it. *)

val paper_matrices : unit -> Propagation.Perm_matrix.t Propagation.String_map.t
(** The permeability matrices as estimated by the paper, for the
    entries that are legible in our source of Table 1/Table 2; values
    we could not recover are interpolated and marked in EXPERIMENTS.md.
    Useful for exercising the analysis pipeline against the paper's
    numbers without re-running the fault-injection campaign. *)
