(* Phase 1 of the concurrency rules (R6-R8): build per-function
   summaries of mutex acquisitions and outgoing calls from every .cmt
   in the scan, then close them under the call graph with a fixpoint.
   Phase 2 ([Lint_concurrency]) replays each file against the closed
   summaries, so a lock-order inversion hidden behind a function call —
   even a cross-module one — is visible at the call site.

   Attribute grammar (see EXTENDING.md):
     [@@@ppdc.lock_order "a b c"]      declares a > b > c (outer first);
                                       every ordered pair becomes an edge
     [@ppdc.guards "cls"]              on a record label: that mutex field
                                       belongs to lock class [cls]
     [@@ppdc.guards "cls"]             on a top-level mutex binding: same
     [@@ppdc.calls_under "cls"]        on a function: literal lambdas
                                       passed to it run with [cls] held
     [@@ppdc.domain_safe "reason"]     on a *function*: its transitive
                                       acquisitions are exempt from the
                                       R8 closure check (and are not
                                       rolled up into callers)

   Soundness limits, by design (documented in DESIGN.md §4h): mutexes
   passed as first-class values classify as unknown and are skipped;
   calls through function parameters are unresolvable; nested-module
   function bindings are keyed by compilation unit only. *)

open Typedtree

type summary = {
  key : string;  (* "Unit.fn", dune mangling undone *)
  sum_src : string;
  mutable direct : (string * Location.t) list;  (* lock class, site *)
  mutable calls : (string * Location.t) list;  (* callee key, site *)
  exempt : bool;  (* [@@ppdc.domain_safe] on the function *)
  calls_under : string list;  (* [@@ppdc.calls_under] classes *)
  mutable trans : (string * string list) list;
      (* transitive acquisitions: class -> witness call chain *)
}

type genv = {
  mutable order : (string * string) list;  (* (outer, inner) declared pairs *)
  summaries : (string, summary) Hashtbl.t;
  binding_class : (string, string) Hashtbl.t;  (* "Unit.mutex" -> class *)
}

(* --- key utilities ------------------------------------------------------ *)

let dot_suffix ~suffix key =
  String.equal key suffix || String.ends_with ~suffix:("." ^ suffix) key

(* Expand a leading local-module alias ("module M = Ppdc_prelude.Mutexes"
   keeps call paths as M.f in the typed tree). *)
let expand_alias aliases key =
  match String.index_opt key '.' with
  | None -> key
  | Some i -> (
      let head = String.sub key 0 i in
      match Hashtbl.find_opt aliases head with
      | Some full ->
          full ^ String.sub key i (String.length key - i)
      | None -> key)

(* Single-segment idents are local to the compilation unit. *)
let qualify unit_name key =
  if String.contains key '.' then key else unit_name ^ "." ^ key

let head_key aliases (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (expand_alias aliases (Lint_types.norm_path p))
  | _ -> None

let is_with_lock key = dot_suffix ~suffix:"Mutexes.with_lock" key
let is_mutex_lock key = String.equal key "Mutex.lock"
let is_mutex_unlock key = String.equal key "Mutex.unlock"
let is_spawn key = dot_suffix ~suffix:"Domain.spawn" key

let parallel_entries =
  [
    "Parallel.parallel_for";
    "Parallel.init";
    "Parallel.run";
  ]

let is_parallel_entry key =
  List.exists (fun s -> dot_suffix ~suffix:s key) parallel_entries

let is_function (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let first_pos_arg args =
  List.find_map
    (function Asttypes.Nolabel, Some (a : expression) -> Some a | _ -> None)
    args

(* --- lock-class classification ------------------------------------------ *)

let guards_tokens attrs =
  List.concat_map Lint_types.attr_tokens
    (Lint_types.attrs_named "ppdc.guards" attrs)

(* A mutex expression resolves to its declared lock class, or None if it
   is first-class (parameter, array element, ...) — unknown mutexes are
   skipped, not guessed. *)
let classify genv aliases unit_name (e : expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> (
      match guards_tokens lbl.lbl_attributes with c :: _ -> Some c | [] -> None)
  | Texp_ident (p, _, _) -> (
      let key = qualify unit_name (expand_alias aliases (Lint_types.norm_path p)) in
      match Hashtbl.find_opt genv.binding_class key with
      | Some c -> Some c
      | None ->
          (* cross-unit reference spelled through a library wrapper *)
          let hits =
            Hashtbl.fold
              (fun k c acc ->
                if dot_suffix ~suffix:k key || dot_suffix ~suffix:key k then
                  c :: acc
                else acc)
              genv.binding_class []
          in
          (match hits with [ c ] -> Some c | _ -> None))
  | _ -> None

(* --- per-file alias map ------------------------------------------------- *)

let aliases_of (str : structure) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (it : structure_item) ->
      match it.str_desc with
      | Tstr_module
          { mb_id = Some _; mb_name = { txt = Some name; _ }; mb_expr; _ } -> (
          match mb_expr.mod_desc with
          | Tmod_ident (p, _) ->
              Hashtbl.replace tbl name (Lint_types.norm_name (Path.name p))
          | _ -> ())
      | _ -> ())
    str.str_items;
  tbl

(* --- summary collection ------------------------------------------------- *)

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (_, l) -> Some l.txt
  | Tpat_alias (_, _, l) -> Some l.txt
  | _ -> None

let collect_body genv aliases unit_name sum body =
  let super = Tast_iterator.default_iterator in
  let expr (it : Tast_iterator.iterator) (e : expression) =
    match e.exp_desc with
    | Texp_apply (h, args) -> (
        match head_key aliases h with
        | Some key when is_spawn key ->
            (* A spawned domain's acquisitions are not held by this
               function; analyze nothing here (the spawned body is
               checked on its own wherever it acquires). *)
            List.iter
              (fun (_, a) ->
                match a with
                | Some a when not (is_function a) -> it.expr it a
                | _ -> ())
              args
        | Some key ->
            let qkey = qualify unit_name key in
            (if is_with_lock key || is_mutex_lock key then (
               match first_pos_arg args with
               | Some m -> (
                   match classify genv aliases unit_name m with
                   | Some c -> sum.direct <- (c, e.exp_loc) :: sum.direct
                   | None -> ())
               | None -> ())
             else if not (is_mutex_unlock key) then
               sum.calls <- (qkey, e.exp_loc) :: sum.calls);
            super.expr it e
        | None -> super.expr it e)
    | _ -> super.expr it e
  in
  let it = { super with expr } in
  it.expr it body

let collect_cmt genv cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> ()
  | info -> (
      match (info.cmt_annots, info.cmt_sourcefile) with
      | Implementation str, Some src when Filename.check_suffix src ".ml" ->
          let unit_name = Lint_types.norm_name info.cmt_modname in
          let aliases = aliases_of str in
          List.iter
            (fun (it : structure_item) ->
              match it.str_desc with
              | Tstr_attribute a
                when String.equal a.attr_name.txt "ppdc.lock_order" ->
                  let classes = Lint_types.attr_tokens a in
                  let rec pairs = function
                    | [] -> []
                    | outer :: rest ->
                        List.map (fun inner -> (outer, inner)) rest @ pairs rest
                  in
                  genv.order <- genv.order @ pairs classes
              | Tstr_value (_, vbs) ->
                  List.iter
                    (fun vb ->
                      match binding_name vb with
                      | None -> ()
                      | Some name ->
                          let key = unit_name ^ "." ^ name in
                          (match guards_tokens vb.vb_attributes with
                          | c :: _ when not (is_function vb.vb_expr) ->
                              Hashtbl.replace genv.binding_class key c
                          | _ -> ());
                          let is_fn =
                            is_function vb.vb_expr
                            ||
                            match Types.get_desc vb.vb_expr.exp_type with
                            | Tarrow _ -> true
                            | _ -> false
                          in
                          if is_fn then begin
                            let sum =
                              {
                                key;
                                sum_src = src;
                                direct = [];
                                calls = [];
                                exempt =
                                  Lint_types.has_attr "ppdc.domain_safe"
                                    vb.vb_attributes;
                                calls_under =
                                  List.concat_map Lint_types.attr_tokens
                                    (Lint_types.attrs_named "ppdc.calls_under"
                                       vb.vb_attributes);
                                trans = [];
                              }
                            in
                            collect_body genv aliases unit_name sum vb.vb_expr;
                            Hashtbl.replace genv.summaries key sum
                          end)
                    vbs
              | _ -> ())
            str.str_items
      | _ -> ())

let collect cmt_paths =
  let genv =
    {
      order = [];
      summaries = Hashtbl.create 64;
      binding_class = Hashtbl.create 16;
    }
  in
  List.iter (collect_cmt genv) cmt_paths;
  genv

(* --- call resolution and fixpoint --------------------------------------- *)

(* Exact key, else a unique dot-aligned suffix match in either direction
   (call sites spell "Ppdc_prelude.Obs.incr", summaries are keyed
   "Obs.incr"). Ambiguity resolves to nothing rather than guessing. *)
let resolve genv key =
  match Hashtbl.find_opt genv.summaries key with
  | Some s -> Some s
  | None -> (
      let hits =
        Hashtbl.fold
          (fun k s acc ->
            if dot_suffix ~suffix:k key || dot_suffix ~suffix:key k then
              s :: acc
            else acc)
          genv.summaries []
      in
      match hits with [ s ] -> Some s | _ -> None)

(* trans(F) = direct(F) ∪ ⋃ { trans(G) | F calls G, G not exempt },
   with the first witness chain kept per class. Exempt functions roll
   nothing up — [@@ppdc.domain_safe] on [Obs.with_shard] is what keeps
   every instrumented parallel closure out of R8. *)
let fixpoint genv =
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ s ->
        if not s.exempt then begin
          let add (c, via) =
            if not (List.exists (fun (c', _) -> String.equal c c') s.trans)
            then begin
              s.trans <- (c, via) :: s.trans;
              changed := true
            end
          in
          List.iter (fun (c, _) -> add (c, [ s.key ])) s.direct;
          List.iter
            (fun (k, _) ->
              match resolve genv k with
              | Some g when not g.exempt ->
                  List.iter (fun (c, via) -> add (c, s.key :: via)) g.trans
              | _ -> ())
            s.calls
        end)
      genv.summaries
  done

(* Acquiring [c] while holding [h] inverts the declared order iff the
   declaration places [c] strictly before (outside) [h]. *)
let order_violation genv ~acquiring ~held =
  List.exists
    (fun (outer, inner) ->
      String.equal outer acquiring && String.equal inner held)
    genv.order

let build cmt_paths =
  let genv = collect cmt_paths in
  fixpoint genv;
  genv
